//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <repro_full|ocr_scan|incremental_refresh> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: set-up (repeated, median
//! reported), then a closed loop of full reproductions — one client,
//! each iteration starting when the previous one finished — for
//! `--seconds` and at least [`MIN_SAMPLES`] iterations, every iteration
//! checked against the set-up's reference. Times are calibrated against
//! a memory-bound kernel timed after each step (see `calib`).
//! `--trace 1` instead repeats the single-threaded traced replay of
//! `replay` for `--seconds` and reports the per-layer metrics.
//!
//! Human-readable lines go first; the last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Set-up errors exit nonzero without a result. See `README.md` for the
//! workloads, metrics, and which layer moves which metric.

mod calib;
mod render;
mod replay;
mod stats;
mod workload;

use calib::{Kernel, Step, NOMINAL_S};
use disengage_obs::profile::{peak_rss_bytes, CountingAlloc};
use replay::{Metric, Replayer};
use stats::{beyond, median, percentile};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{check, prepare, reproduce, Prepared, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The closed loop runs past `--seconds` until it has this many
/// samples, so at least ten lie beyond the nearest-rank p90 ...
const MIN_SAMPLES: usize = 100;

/// ... but never past this multiple of `--seconds`, so a slow machine
/// still finishes in time.
const MAX_LOOP_FACTOR: u32 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A scratch directory under the working directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: String) -> WorkDir {
        let dir = Path::new(".bench_work").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        WorkDir(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Drop the parent too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// The result line's contents.
struct Outcome {
    attempted: u64,
    failed: u64,
    checks_ok: bool,
    metrics: Vec<(String, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                workload_names()
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = WorkDir::new(format!("{}-{}", args.workload.name(), std::process::id()));
    let result = if args.trace {
        traced(&args, nproc, &work.0)
    } else {
        end_to_end(&args, nproc, &work.0)
    };
    match result {
        Ok(out) => {
            println!("{}", result_line(&out));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Stages I–III worker count of the closed loop: one fewer than the
/// machine's cores, at least one. On a shared host a vCPU the host takes
/// away stalls every shard schedule that needs all the cores, so at
/// `jobs = nproc` the figures measure the neighbours, not the program;
/// the spare core absorbs that.
fn bench_jobs(nproc: usize) -> usize {
    nproc.saturating_sub(1).max(1)
}

fn workload_names() -> String {
    Workload::ALL.map(Workload::name).join("|")
}

/// Runs set-up `count` times (each into a fresh directory) and keeps
/// the last; returns it, one [`Prepared`] per corpus, with the set-up
/// steps.
fn setups(
    args: &Args,
    jobs: usize,
    work: &Path,
    count: usize,
    kernel: &mut Kernel,
) -> Result<(Vec<Prepared>, Vec<Step>), String> {
    let mut times = Vec::with_capacity(count);
    let mut kept = Vec::new();
    for n in 0..count {
        // Release the previous set-up (and its cache) before timing the next.
        kept.clear();
        let dir = work.join(format!("setup{n}"));
        let (prepared, time) = kernel.measure(|| {
            (0..args.workload.corpora())
                .map(|k| {
                    let corpus_dir = dir.join(format!("corpus{k}"));
                    prepare(args.workload, args.seed, k, jobs, &corpus_dir)
                })
                .collect::<Result<Vec<_>, _>>()
        });
        kept = prepared?;
        times.push(time);
        if n + 1 < count {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    Ok((kept, times))
}

/// The end-to-end run: set-up, then the closed loop of checked
/// reproductions for `--seconds`.
fn end_to_end(args: &Args, nproc: usize, work: &Path) -> Result<Outcome, String> {
    let jobs = bench_jobs(nproc);
    let mut kernel = Kernel::new();
    let (inputs, setup_times) = setups(args, jobs, work, SETUPS, &mut kernel)?;

    let budget = Duration::from_secs(args.seconds);
    let (mut samples, mut records, mut failed) = (Vec::new(), 0usize, 0u64);
    let start = Instant::now();
    while (start.elapsed() < budget || samples.len() < MIN_SAMPLES)
        && start.elapsed() < budget * MAX_LOOP_FACTOR
    {
        let i = samples.len();
        let p = &inputs[i % inputs.len()];
        if let Some(r) = &p.refresh {
            r.invalidate(r.shard_for(i))?;
        }
        let (run, time) = kernel
            .measure(|| catch_unwind(AssertUnwindSafe(|| reproduce(&p.session, &p.classifier))));
        samples.push(time);
        let verdict = match run {
            Ok(Ok((o, text))) => check(p, &o, &text).map(|()| o.database.disengagements().len()),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("panicked".to_owned()),
        };
        match verdict {
            Ok(n) => records += n,
            Err(e) => {
                eprintln!("iteration {i} FAILED: {e}");
                failed += 1;
            }
        }
    }
    let attempted = samples.len() as u64;
    let times: Vec<f64> = samples.iter().map(Step::calibrated).collect();
    let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
    let kernels: Vec<f64> = samples.iter().map(|s| s.kernel).collect();
    let busy: f64 = times.iter().sum();
    let rss = peak_rss_bytes().ok_or("VmHWM is unavailable")?;
    let metrics = vec![
        (
            "setup_s".to_owned(),
            median(&setup_times.iter().map(Step::calibrated).collect::<Vec<_>>()),
            "s",
        ),
        ("run_p50_s".to_owned(), median(&times), "s"),
        ("run_p90_s".to_owned(), percentile(&times, 0.9), "s"),
        ("records_per_s".to_owned(), records as f64 / busy, "1/s"),
        (
            "peak_rss_mib".to_owned(),
            rss as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
    ];
    println!(
        "workload {}: seed {}, nproc {nproc}, jobs {jobs}, {attempted} iterations in {:.1} s \
         ({} beyond p90), {} corpora, set-up walls {:.3?} s",
        args.workload.name(),
        args.seed,
        start.elapsed().as_secs_f64(),
        beyond(samples.len(), 0.9),
        inputs.len(),
        setup_times.iter().map(|s| s.wall).collect::<Vec<_>>(),
    );
    println!(
        "  wall p50 {:.6} s, wall p90 {:.6} s, calibration kernel median {:.3} ms \
         (nominal {:.1} ms)",
        median(&walls),
        percentile(&walls, 0.9),
        median(&kernels) * 1e3,
        NOMINAL_S * 1e3,
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<14} {value:>14.6} {unit}");
    }
    println!(
        "  {:<14} {:>14.6} frac",
        "failed_frac",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(Outcome {
        attempted,
        failed,
        checks_ok: true,
        metrics,
    })
}

/// The traced run: one set-up, then traced replays for `--seconds`.
/// Replay 0 runs twice and its exact counts must repeat; times are
/// medians over all replays, counts come from replay 0. Replays rotate
/// through the corpora as the closed loop does. The `par.*` schedules
/// model `nproc` workers: what a run on every core could gain.
fn traced(args: &Args, nproc: usize, work: &Path) -> Result<Outcome, String> {
    let (inputs, _) = setups(args, bench_jobs(nproc), work, 1, &mut Kernel::new())?;
    let replayers = inputs
        .iter()
        .map(|p| Replayer::new(p, nproc))
        .collect::<Result<Vec<_>, _>>()?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut runs: Vec<Vec<Metric>> = Vec::new();
    let (mut attempted, mut failed, mut repeat_ok) = (0u64, 0u64, true);
    while runs.len() < 2 || start.elapsed() < budget {
        // Replays 0 and 1 both replay iteration 0.
        let i = runs.len().saturating_sub(1);
        attempted += 1;
        let replayer = &replayers[i % replayers.len()];
        match catch_unwind(AssertUnwindSafe(|| replayer.run(i))) {
            Ok(Ok(m)) => runs.push(m),
            Ok(Err(e)) => {
                eprintln!("replay {attempted} FAILED: {e}");
                failed += 1;
            }
            Err(_) => {
                eprintln!("replay {attempted} panicked");
                failed += 1;
            }
        }
        if failed > 0 && runs.len() < 2 {
            return Ok(Outcome {
                attempted,
                failed,
                checks_ok: false,
                metrics: Vec::new(),
            });
        }
    }
    for (a, b) in runs[0].iter().zip(&runs[1]).filter(|(a, _)| a.count) {
        if a.value.to_bits() != b.value.to_bits() {
            eprintln!(
                "count {} did not repeat: {} vs {}",
                a.name, a.value, b.value
            );
            repeat_ok = false;
        }
    }
    let metrics: Vec<(String, f64, &'static str)> = runs[0]
        .iter()
        .enumerate()
        .map(|(j, m)| {
            let value = if m.count {
                m.value
            } else {
                median(&runs.iter().map(|r| r[j].value).collect::<Vec<_>>())
            };
            (m.name.clone(), value, m.unit)
        })
        .collect();
    println!(
        "workload {} traced: seed {}, nproc {nproc}, replay jobs 1, {} replays",
        args.workload.name(),
        args.seed,
        runs.len()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    Ok(Outcome {
        attempted,
        failed,
        checks_ok: repeat_ok,
        metrics,
    })
}

fn result_line(out: &Outcome) -> String {
    let mut metrics = String::new();
    for (k, (name, value, unit)) in out.metrics.iter().enumerate() {
        let sep = if k == 0 { "" } else { ", " };
        // JSON has no NaN or infinity.
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.checks_ok && out.failed == 0,
        out.attempted,
        out.failed,
    )
}
