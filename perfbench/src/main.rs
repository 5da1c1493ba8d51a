//! `perfbench`: wall-time and virtual-time benchmark of the vpce
//! toolchain over three workloads (`study`, `pipeline`, `jobs`).
//!
//! ```text
//! perfbench --workload study|pipeline|jobs --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload as a closed loop: a single client
//! thread issues one operation at a time, in whole rounds of the same
//! seeded operations, until `--seconds` have passed. Every output is
//! checked. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `README.md` beside this file for the workloads and metrics.

mod alloc;
mod check;
mod jobs;
mod pipeline;
mod spans;
mod stats;
mod study;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use spans::Spans;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc::new();

fn alloc_count() -> u64 {
    ALLOC.count()
}

/// Per-layer counts a traced operation adds up (name → total).
pub type Counters = BTreeMap<&'static str, f64>;

/// Add `v` to counter `name`.
pub fn bump(c: &mut Counters, name: &'static str, v: f64) {
    *c.entry(name).or_insert(0.0) += v;
}

/// How an operation's output fared against its checks.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Pass,
    /// The output shows a known fault of the program: the operation
    /// counts as failed, every run alike.
    Fault(String),
    /// The output is wrong.
    Wrong(String),
}

/// One workload: a round of seeded operations, run untraced (timed)
/// or traced (decomposed into layer calls), and checked.
pub trait Workload {
    /// Operations in one round.
    fn ops(&self) -> usize;
    /// Run operation `i` as a user would. `Err` is a failed operation.
    fn run(&mut self, i: usize) -> Result<(), String>;
    /// Check the output the last `run(i)` left behind.
    fn check(&mut self, i: usize) -> Verdict;
    /// Run operation `i` again as calls into each layer, each inside
    /// a span, adding layer counts to `c`.
    fn traced(&mut self, i: usize, sp: &mut Spans, c: &mut Counters) -> Result<(), String>;
    /// Simulated parallel elapsed time and critical-path communication
    /// time summed over one round, seconds.
    fn virt(&self) -> (f64, f64);
}

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set up once, print the set-up time and exit: one cold set-up
    /// sample for the parent run's `setup_s`.
    setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        setup_only: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?.clone(),
            "--seed" => a.seed = val()?.parse().map_err(|_| "--seed needs a number")?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(a)
}

/// Cold set-ups per run; `setup_s` is their median. The run's own
/// set-up is the first, and each other one runs in a fresh process
/// (`--setup-only`), so every sample pays the first-touch work that
/// the warm-up operations exist to move out of the timed phase.
const SETUPS: usize = 5;

fn setup(name: &str, seed: u64, sp: &mut Spans) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "study" => Box::new(study::Study::setup(seed, sp)?),
        "pipeline" => Box::new(pipeline::Pipeline::setup(seed)?),
        "jobs" => Box::new(jobs::Jobs::setup(seed, sp)?),
        other => return Err(format!("unknown workload `{other}` (study|pipeline|jobs)")),
    })
}

/// What the timed or traced phase observed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Wrong outputs.
    errors: Vec<String>,
    /// Why operations failed, each reason once.
    faults: BTreeSet<String>,
    /// Latencies of each successful operation (indexed by its place
    /// in the round), milliseconds, one per round.
    lat_ms: Vec<Vec<f64>>,
    /// Wall time of each round, seconds.
    round_s: Vec<f64>,
}

/// One round: run every operation, timing each, then check the
/// outputs (untimed). With `trace`, operations run decomposed; their
/// outputs are not kept, so the checks return the verdicts of the last
/// untraced round, and the same operations count as failed.
fn round(
    w: &mut dyn Workload,
    t: &mut Tally,
    mut trace: Option<(&mut Spans, &mut Counters, &mut u64)>,
) {
    let start = Instant::now();
    let mut lat: Vec<Result<f64, String>> = Vec::with_capacity(w.ops());
    for i in 0..w.ops() {
        let t0 = Instant::now();
        let res = match trace.as_mut() {
            None => w.run(i),
            Some((sp, c, op)) => {
                **op += 1;
                sp.set_op(**op);
                sp.span("op", |sp| w.traced(i, sp, c))
            }
        };
        lat.push(res.map(|()| t0.elapsed().as_secs_f64() * 1e3));
    }
    t.round_s.push(start.elapsed().as_secs_f64());
    t.lat_ms.resize(lat.len(), Vec::new());
    for (i, ms) in lat.into_iter().enumerate() {
        t.attempted += 1;
        let (verdict, ms) = match ms {
            Err(e) => (Verdict::Fault(e), 0.0),
            Ok(ms) => (w.check(i), ms),
        };
        match verdict {
            Verdict::Pass => t.lat_ms[i].push(ms),
            Verdict::Wrong(e) => {
                t.errors.push(format!("op {i}: {e}"));
                t.lat_ms[i].push(ms);
            }
            Verdict::Fault(e) => {
                t.failed += 1;
                t.faults.insert(format!("op {i}: {e}"));
            }
        }
    }
}

/// Rounds until `seconds` have passed (at least one, always whole).
fn timed(
    w: &mut dyn Workload,
    seconds: u64,
    mut trace: Option<(&mut Spans, &mut Counters, &mut u64)>,
) -> Tally {
    let mut t = Tally::default();
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    while t.round_s.is_empty() || start.elapsed() < budget {
        let tr = trace
            .as_mut()
            .map(|(s, c, o)| (&mut **s, &mut **c, &mut **o));
        round(w, &mut t, tr);
    }
    t
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.is_empty() {
        out.push_str(", ");
    }
    let _ = write!(
        out,
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    );
}

fn result_line(correct: bool, t: &Tally, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        t.attempted, t.failed
    )
}

/// Pin this thread to the lowest CPU it may run on, before any other
/// thread or process starts: the rank threads and the set-up processes
/// inherit the pin. On the 2-vCPU virtual machine the benchmark was
/// built on, threads that hand messages across the two vCPUs ran up
/// to 2.5x slower in spells lasting minutes (a `jobs` round took
/// 3.6-5.5 s unpinned against 2.1 s pinned in the same minute), while
/// on one vCPU every workload ran as fast as in the quiet spells, or
/// faster: the rank threads mostly wait on each other.
fn pin_to_one_cpu() -> Result<usize, String> {
    // glibc's `cpu_set_t` is 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a writable `cpu_set_t` of `size` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut mask) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    let cpu = (0..1024)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask names no CPU")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, for a mask that is only read.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(std::io::Error::last_os_error().to_string());
    }
    Ok(cpu)
}

fn main() {
    // Operations that panic are caught and counted as failed; one line
    // on standard error says why, without a backtrace.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("perfbench: operation panicked: {info}")
    }));
    if let Err(e) = pin_to_one_cpu() {
        eprintln!("perfbench: running unpinned, could not pin to one CPU: {e}");
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    if args.trace {
        ALLOC.enable();
    }
    let mut setup_sp = Spans::new(alloc_count);
    let t0 = Instant::now();
    let mut w = setup(&args.workload, args.seed, &mut setup_sp)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    if args.setup_only {
        println!("setup_s {}", setups[0]);
        return Ok(());
    }
    let w = w.as_mut();
    if args.trace {
        return run_traced(args, w, &setup_sp);
    }
    for _ in 1..SETUPS {
        setups.push(cold_setup(args)?);
    }

    let t = timed(w, args.seconds, None);
    let (virt_elapsed, virt_comm) = w.virt();
    let mut m = String::new();
    let med = |v: &[f64]| stats::median(v).ok_or("no operation succeeded");
    metric(&mut m, "setup_s", med(&setups)?, "s");
    metric(&mut m, "wall_s", med(&t.round_s)?, "s");
    // An operation's latency is the median of its repetitions, one per
    // round: a burst of host noise in one round does not reach the
    // percentiles, which are taken over operations.
    let per_op: Vec<f64> = t.lat_ms.iter().filter_map(|v| stats::median(v)).collect();
    metric(&mut m, "op_p50_ms", med(&per_op)?, "ms");
    let p90 = stats::percentile(&per_op, 90.0).ok_or("no operation succeeded")?;
    metric(&mut m, "op_p90_ms", p90, "ms");
    let rss = stats::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    metric(&mut m, "peak_rss_mb", rss, "MB");
    metric(&mut m, "virt_elapsed_s", virt_elapsed, "s");
    metric(&mut m, "virt_comm_s", virt_comm, "s");
    let samples: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-up times (s): {}", samples.join(" "));
    report(args, &t);
    println!("{}", result_line(t.errors.is_empty(), &t, &m));
    Ok(())
}

/// One set-up in a fresh process of this program, which exits when it
/// has timed it; its time in seconds.
fn cold_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this program: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .arg("--setup-only")
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a set-up process: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s ")?.parse().ok())
        .filter(|_| out.status.success())
        .ok_or(format!("set-up process exited {}", out.status))
}

/// Human-readable summary on standard output, above the result line.
fn report(args: &Args, t: &Tally) {
    println!(
        "perfbench {} seed {}: {} rounds, {} operations, {} failed",
        args.workload,
        args.seed,
        t.round_s.len(),
        t.attempted,
        t.failed
    );
    let rounds: Vec<String> = t.round_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("round wall times (s): {}", rounds.join(" "));
    let ops: Vec<String> = t
        .lat_ms
        .iter()
        .map(|v| stats::median(v).map_or("-".into(), |ms| format!("{ms:.1}")))
        .collect();
    println!("median latency per operation (ms): {}", ops.join(" "));
    for f in &t.faults {
        println!("FAILED (known fault) {f}");
    }
    for e in t.errors.iter().take(20) {
        println!("CHECK FAILED {e}");
    }
}

/// The traced run: one untraced round as the overhead baseline, then
/// traced rounds for `--seconds`. Writes the spans as Chrome JSON.
fn run_traced(args: &Args, w: &mut dyn Workload, setup_sp: &Spans) -> Result<(), String> {
    let base = timed(w, 0, None);
    let mut sp = Spans::new(alloc_count);
    let mut c = Counters::new();
    let mut op = 0u64;
    let t = timed(w, args.seconds, Some((&mut sp, &mut c, &mut op)));
    let rounds = t.round_s.len() as f64;

    let costs = sp.layer_costs();
    let cost = |name: &str| costs.get(name).copied().unwrap_or_default();
    let per_round = |v: f64| v / rounds;
    let mut m = String::new();
    let ms = |m: &mut String, metric_name: &str, span: &str| {
        metric(m, metric_name, per_round(cost(span).self_ms), "ms");
    };
    let count = |m: &mut String, name: &'static str, unit: &str| {
        metric(
            m,
            name,
            per_round(c.get(name).copied().unwrap_or(0.0)),
            unit,
        );
    };
    ms(&mut m, "fe.ms", "fe");
    metric(
        &mut m,
        "fe.allocs",
        per_round(cost("fe").self_allocs as f64),
        "count",
    );
    ms(&mut m, "be.fine.ms", "be.fine");
    ms(&mut m, "be.middle.ms", "be.middle");
    ms(&mut m, "be.coarse.ms", "be.coarse");
    let be_allocs: u64 = ["be.fine", "be.middle", "be.coarse"]
        .iter()
        .map(|n| cost(n).self_allocs)
        .sum();
    metric(&mut m, "be.allocs", per_round(be_allocs as f64), "count");
    count(&mut m, "be.transfers", "count");
    metric(
        &mut m,
        "advisor.ms",
        per_round(cost("advisor").total_ms),
        "ms",
    );
    metric(
        &mut m,
        "advisor.calls",
        per_round(cost("advisor").calls as f64),
        "count",
    );
    ms(&mut m, "exec.analytic.ms", "exec.analytic");
    ms(&mut m, "exec.full.ms", "exec.full");
    count(&mut m, "exec.ranks", "count");
    let exec_allocs = cost("exec.analytic").self_allocs + cost("exec.full").self_allocs;
    metric(
        &mut m,
        "exec.allocs",
        per_round(exec_allocs as f64),
        "count",
    );
    let exec_us = (cost("exec.analytic").self_ms + cost("exec.full").self_ms) * 1e3;
    let msgs = c.get("net.messages").copied().unwrap_or(0.0);
    let us_per_msg = if msgs > 0.0 { exec_us / msgs } else { 0.0 };
    metric(&mut m, "exec.us_per_msg", us_per_msg, "us");
    ms(&mut m, "seq.ms", "seq");
    for name in [
        "mpi.eager_ops",
        "mpi.rdvz_ops",
        "mpi.pool_waits",
        "mpi.doorbells",
        "mpi.fallbacks",
        "net.messages",
    ] {
        count(&mut m, name, "count");
    }
    count(&mut m, "net.wire_mb", "MB");
    count(&mut m, "net.broadcasts", "count");
    count(&mut m, "net.contention_wait_s", "s");
    ms(&mut m, "lint.ms", "lint");
    metric(
        &mut m,
        "lint.allocs",
        per_round(cost("lint").self_allocs as f64),
        "count",
    );
    ms(&mut m, "verify.ms", "verify");
    count(&mut m, "verify.states", "count");
    ms(&mut m, "report.ms", "report");
    count(&mut m, "trace.kb", "KB");
    ms(&mut m, "sched.ms", "sched");
    for name in ["sched.jobs", "sched.attempts", "sched.requeues"] {
        count(&mut m, name, "count");
    }
    count(&mut m, "sched.recovery_s", "s");
    ms(&mut m, "serve.open_ms", "serve.open");
    ms(&mut m, "serve.drain_ms", "serve.drain");
    count(&mut m, "serve.journal_kb", "KB");
    let machine = setup_sp
        .layer_costs()
        .get("machine")
        .map_or(0.0, |c| c.self_ms);
    metric(&mut m, "machine.ms", machine, "ms");
    let base_round = stats::median(&base.round_s).expect("at least one round");
    let traced_round = stats::median(&t.round_s).expect("at least one round");
    metric(
        &mut m,
        "span.overhead_pct",
        (traced_round / base_round - 1.0) * 100.0,
        "%",
    );
    metric(
        &mut m,
        "span.uncovered_pct",
        sp.uncovered_share("op") * 100.0,
        "%",
    );

    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, sp.to_chrome_json()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "perfbench {} seed {} traced: {} spans in {} rounds -> {} (untraced round {:.3} s, traced {:.3} s)",
        args.workload,
        args.seed,
        sp.spans().len(),
        t.round_s.len(),
        path.display(),
        base_round,
        traced_round
    );
    for e in base.errors.iter().take(20) {
        println!("CHECK FAILED {e}");
    }
    // The traced round's attempts and failures are the traced run's;
    // correctness rests on the checked untraced round before it.
    println!("{}", result_line(base.errors.is_empty(), &t, &m));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_the_run_form() {
        let a = parse_args(&argv("--workload jobs --seed 9 --seconds 4 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("jobs", 9, 4, true)
        );
    }

    #[test]
    fn args_reject_bad_values() {
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--bogus 1")).is_err());
    }

    #[test]
    fn setup_only_is_off_unless_asked() {
        assert!(!parse_args(&argv("--workload study")).unwrap().setup_only);
        assert!(parse_args(&argv("--workload study --setup-only")).unwrap().setup_only);
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        let cpu = pin_to_one_cpu().expect("pinning this test thread");
        let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
            .unwrap();
        assert_eq!(allowed.trim(), cpu.to_string());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let t = Tally {
            attempted: 3,
            failed: 1,
            ..Tally::default()
        };
        let mut m = String::new();
        metric(&mut m, "wall_s", 1.5, "s");
        assert_eq!(
            result_line(true, &t, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
