//! `jobs`: seeded jobfiles. One operation plays one jobfile through
//! the gang scheduler (`vpce::cli::run_batch`), then through `vpced`
//! (`vpce::cli::run_serve`) killed at a seeded journal offset, then
//! through `vpced` again over the same journal, which recovers and
//! finishes.

use std::fmt::Write as _;

use spmd_rt::ExecMode;
use vpce::cli::{self, CliArgs, Outcome};
use vpce_sched::{BatchOptions, BatchReport, BatchSpec};
use vpce_serve::{Daemon, KillStorage, MemStorage, Runner, Storage, KILLED};
use vpce_testkit::rng::Xoshiro256pp;

use crate::check::{self, Check};
use crate::spans::Spans;
use crate::{bump, Counters, Verdict, Workload};

/// Seeded jobfiles per round (the fixed crashy jobfile comes last).
const JOBFILES: usize = 4;

/// The built-in machines the seeded jobfiles name in `machine=`.
const MACHINES: [&str; 3] = ["torus3d", "crossbar", "fattree"];

/// The fixed jobfile of every round: two `crashy` jobs whose first
/// attempts lose a rank (draining its node) and whose requeues
/// complete, beside two steady jobs. Its inputs do not depend on the
/// seed, so the known fault it shows (see `check_first`) fails the
/// same operation in every run.
const CRASHY: &str = "# perfbench jobs: crashy jobs with retries
nodes=16
policy=backfill
seed=2
job name=crashy0 workload=mm ranks=2 param:N=16 faults=crashy,seed=1 retries=4
job name=crashy1 workload=mm ranks=2 param:N=16 faults=crashy,seed=9 retries=4
job name=steady0 workload=mm ranks=4 param:N=16
job name=steady1 workload=mm ranks=2 param:N=16
";

/// A seeded jobfile on the 16-node mesh: one whole-mesh job and one
/// half-mesh job first, jobs on three other fabrics, two `recover=on`
/// jobs whose crashes are absorbed in-run, and two arrival storms of
/// small jobs across two tenants. The whole-mesh and half-mesh jobs
/// take most of an operation's time, so their sizes are fixed: seeded
/// sizes there made the seed, not the program, set the round's time.
pub fn jobfile(seed: u64, k: usize) -> (String, Vec<String>) {
    let mut rng = Xoshiro256pp::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k as u64);
    let mut r = |lo: i64, hi: i64| rng.range_i64(lo, hi);
    let mut t = String::new();
    let _ = writeln!(t, "# perfbench jobs: seed {seed}, jobfile {k}");
    let _ = writeln!(t, "nodes=16\npolicy=backfill\nseed={}", r(1, 1 << 20));
    t.push_str("tenant name=acme share=2\ntenant name=beta share=1\n");
    t.push_str("job name=full workload=mm ranks=16 param:N=34 prio=9\n");
    t.push_str("job name=half workload=swim ranks=8 param:N=26 prio=5 tenant=beta\n");
    let _ = writeln!(
        t,
        "job name=tor workload=cfft ranks=4 param:M={} machine=torus3d tenant=acme",
        6 + r(0, 1)
    );
    let _ = writeln!(
        t,
        "job name=xbar workload=mm ranks=4 param:N={} machine=crossbar",
        16 + 2 * r(0, 3)
    );
    let _ = writeln!(
        t,
        "job name=fat workload=swim ranks=2 param:N={} machine=fattree",
        16 + 2 * r(0, 3)
    );
    let _ = writeln!(
        t,
        "job name=rec0 workload=mm ranks=4 param:N=16 faults=crash=0.1,seed={} retries=0 recover=on,buddies=3,spares=8",
        r(1, 1 << 20)
    );
    let _ = writeln!(
        t,
        "job name=rec1 workload=swim ranks=4 param:N=16 faults=crash=0.1,seed={} retries=0 recover=on,buddies=3,spares=8",
        r(1, 1 << 20)
    );
    t.push_str("storm count=8 prefix=s workload=mm ranks=2 param:N=16 mean-gap=1e-5 tenant=acme\n");
    t.push_str(
        "storm count=6 prefix=t workload=cfft ranks=1 param:M=6 mean-gap=2e-5 tenant=beta\n",
    );
    (t, vec!["rec0".into(), "rec1".into()])
}

struct Jobfile {
    name: String,
    text: String,
    recovering: Vec<String>,
    batch: CliArgs,
    /// The serve invocation killed at the seeded journal offset.
    killed: CliArgs,
    /// The serve invocation that recovers and finishes.
    restart: CliArgs,
    /// A serve run that was never killed: its JSON and human report.
    baseline: (String, String),
}

/// What one operation produced.
#[derive(Clone, PartialEq)]
struct Out {
    batch: (Outcome, String, Option<String>),
    killed: Outcome,
    restart: (Outcome, String, Option<String>),
}

pub struct Jobs {
    files: Vec<Jobfile>,
    last: Vec<Option<Out>>,
    first: Vec<Option<(Out, Verdict)>>,
    /// Simulated horizon and communication time per jobfile.
    virt: Vec<(f64, f64)>,
}

fn args(argv: &[&str]) -> Result<CliArgs, String> {
    let v: Vec<String> = argv.iter().map(|s| s.to_string()).collect();
    cli::parse_args(&v).map_err(|e| format!("{argv:?}: {e}"))
}

fn no_sources(path: &str) -> Result<String, String> {
    Err(format!("{path}: jobs name built-in workloads only"))
}

/// The number after `"key": ` in a stable-JSON report.
fn json_number(json: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{key}\": "))? + key.len() + 4;
    let end = json[at..]
        .find([',', '\n', '}'])
        .map_or(json.len(), |e| at + e);
    json[at..end].trim().parse().ok()
}

impl Jobs {
    pub fn setup(seed: u64, sp: &mut Spans) -> Result<Self, String> {
        // The fabrics the jobfiles name per job, resolved and lowered
        // to the batch's 16 nodes as a `.machine` file would be.
        sp.span("machine", |_| {
            for name in MACHINES {
                crate::study::lower_machine(name, 16)?;
            }
            Ok::<_, String>(())
        })?;
        let mut files = Vec::with_capacity(JOBFILES + 1);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for k in 0..=JOBFILES {
            let (text, recovering, name) = match k {
                JOBFILES => (CRASHY.to_string(), Vec::new(), "crashy.jobs".to_string()),
                k => {
                    let (text, recovering) = jobfile(seed, k);
                    (text, recovering, format!("seed{seed}-{k}.jobs"))
                }
            };
            BatchSpec::parse_named(&text, &name).map_err(|e| e.to_string())?;
            let serve_args = args(&["--serve", &name])?;
            let mut storage = MemStorage::default();
            let base = cli::run_serve(&text, &serve_args, &mut storage);
            let json = base
                .batch_json
                .ok_or(format!("{name}: serve exited {}", base.exit))?;
            // A seeded offset in the middle third of the journal, so the
            // killed and the restarted incarnation share the work alike
            // whatever the seed.
            let third = storage.bytes.len() as u64 / 3;
            let kill_at = third + rng.below(third);
            files.push(Jobfile {
                batch: args(&["--batch", &name])?,
                killed: args(&["--serve", &name, "--kill-after", &kill_at.to_string()])?,
                restart: serve_args,
                baseline: (json, base.text),
                name,
                text,
                recovering,
            });
        }
        let jobs = Jobs {
            last: vec![None; files.len()],
            first: vec![None; files.len()],
            virt: vec![(0.0, 0.0); files.len()],
            files,
        };
        // The serve baselines warmed the service path; warm the batch
        // path too.
        cli::run_batch(&jobs.files[0].text, &jobs.files[0].batch, &no_sources)?;
        Ok(jobs)
    }

    /// The first round's checks. A requeued job whose breakdown does
    /// not tile its makespan is a known fault (the operation fails);
    /// any other failed check is a wrong output.
    fn check_first(&mut self, i: usize, out: &Out) -> Verdict {
        let mut requeued = None;
        match self.check_outputs(i, out, &mut requeued) {
            Err(e) => Verdict::Wrong(e),
            Ok(()) => match requeued
                .map(|rep| check::breakdowns_tile_makespan(&self.files[i].name, &rep))
            {
                Some(Err(e)) => Verdict::Fault(e),
                _ => Verdict::Pass,
            },
        }
    }

    /// Every check but the breakdown tiling of requeued jobs, which is
    /// left to the caller through `requeued`.
    fn check_outputs(&mut self, i: usize, out: &Out, requeued: &mut Option<BatchReport>) -> Check {
        let f = &self.files[i];
        let what = f.name.as_str();
        let (outcome, _, json) = &out.batch;
        let json = json
            .as_deref()
            .ok_or(format!("{what}: batch produced no report"))?;
        // The scheduler's own report, for the properties the JSON does
        // not carry (attempt intervals and partitions).
        let spec = BatchSpec::parse_named(&f.text, &f.name).map_err(|e| e.to_string())?;
        let opts = BatchOptions {
            mode: ExecMode::Full,
            ..BatchOptions::default()
        };
        let rep: BatchReport = vpce_sched::run_batch(&spec, &opts, &no_sources)?;
        check::same_bytes(&format!("{what} batch report"), json, &rep.to_json())?;
        check::all_done(what, &rep)?;
        if *outcome != Outcome::Success {
            return Err(format!("{what}: batch ended {outcome:?}"));
        }
        check::partitions_disjoint(what, &rep.attempts)?;
        let (again, once): (Vec<_>, Vec<_>) =
            rep.records.iter().cloned().partition(|r| r.requeues > 0);
        check::breakdowns_tile_makespan(
            what,
            &BatchReport {
                records: once,
                ..rep.clone()
            },
        )?;
        if !again.is_empty() {
            *requeued = Some(BatchReport {
                records: again,
                ..rep.clone()
            });
        }
        check::recovered_identical(what, &rep, &f.recovering)?;

        if out.killed != Outcome::RuntimeFault {
            return Err(format!(
                "{what}: serve was not killed at its seeded offset ({:?})",
                out.killed
            ));
        }
        let (outcome, text, json) = &out.restart;
        if *outcome != Outcome::Success {
            return Err(format!("{what}: serve restart ended {outcome:?}"));
        }
        let json = json
            .as_deref()
            .ok_or(format!("{what}: serve restart produced no report"))?;
        let (base_json, base_text) = &f.baseline;
        check::same_bytes(&format!("{what} serve report after kill"), json, base_json)?;
        if !text.ends_with(base_text.as_str()) {
            return Err(format!(
                "{what}: serve human report after kill differs from the uninterrupted run"
            ));
        }
        let submitted = json_number(json, "submitted");
        if submitted.is_none() || submitted != json_number(json, "done") {
            return Err(format!(
                "{what}: serve finished {:?} of {submitted:?} jobs",
                json_number(json, "done")
            ));
        }
        let serve_horizon =
            json_number(json, "horizon_s").ok_or(format!("{what}: no serve horizon"))?;
        let comm: f64 = rep
            .records
            .iter()
            .filter_map(|r| r.breakdown)
            .map(|b| b.setup + b.occupancy + b.wait)
            .sum();
        self.virt[i] = (rep.horizon + serve_horizon, comm);
        Ok(())
    }

    /// One `vpced` incarnation as calls into the service: open (journal
    /// replay), submit and drain, render. `Ok(false)` when killed.
    fn traced_incarnation(
        &self,
        f: &Jobfile,
        storage: &mut MemStorage,
        kill: Option<u64>,
        sp: &mut Spans,
    ) -> Result<bool, String> {
        let runner = Runner::new(ExecMode::Full);
        let script = vpce_serve::script_lines(&f.text);
        let mut ks =
            KillStorage::new(storage as &mut dyn Storage, kill).map_err(|e| e.to_string())?;
        let opened = sp.span("serve.open", |_| Daemon::open(&mut ks, &runner));
        let (mut daemon, _) = match opened {
            Ok(d) => d,
            Err(e) if e.detail == KILLED => return Ok(false),
            Err(e) => return Err(e.to_string()),
        };
        let drained = sp.span("serve.drain", |_| {
            for line in script.iter().skip(daemon.inputs().len()) {
                daemon.submit(line)?;
            }
            daemon.drain()
        });
        match drained {
            Ok(()) => {}
            Err(e) if e.detail == KILLED => return Ok(false),
            Err(e) => return Err(e.to_string()),
        }
        sp.span("report", |_| {
            (daemon.report().render_human(), daemon.report_json().len())
        });
        Ok(true)
    }
}

impl Workload for Jobs {
    fn ops(&self) -> usize {
        self.files.len()
    }

    fn run(&mut self, i: usize) -> Result<(), String> {
        let f = &self.files[i];
        let b = cli::run_batch(&f.text, &f.batch, &no_sources)?;
        let mut storage = MemStorage::default();
        let killed = cli::run_serve(&f.text, &f.killed, &mut storage).outcome;
        let r = cli::run_serve(&f.text, &f.restart, &mut storage);
        self.last[i] = Some(Out {
            batch: (b.outcome, b.text, b.batch_json),
            killed,
            restart: (r.outcome, r.text, r.batch_json),
        });
        Ok(())
    }

    fn check(&mut self, i: usize) -> Verdict {
        let Some(out) = self.last[i].clone() else {
            return Verdict::Wrong("operation left no output".into());
        };
        match &self.first[i] {
            // Scheduling, faults and replay are deterministic in virtual
            // time: later rounds must repeat the first byte for byte.
            Some((first, verdict)) if *first == out => verdict.clone(),
            Some(_) => Verdict::Wrong(format!(
                "{}: output differs from round 1",
                self.files[i].name
            )),
            None => {
                let verdict = self.check_first(i, &out);
                self.first[i] = Some((out, verdict.clone()));
                verdict
            }
        }
    }

    fn traced(&mut self, i: usize, sp: &mut Spans, c: &mut Counters) -> Result<(), String> {
        let f = &self.files[i];
        let rep = sp.span("sched", |_| {
            let spec = BatchSpec::parse_named(&f.text, &f.name).map_err(|e| e.to_string())?;
            let opts = BatchOptions {
                mode: ExecMode::Full,
                ..BatchOptions::default()
            };
            vpce_sched::run_batch(&spec, &opts, &no_sources)
        })?;
        sp.span("report", |_| (rep.render_human(), rep.to_json()));
        bump(c, "sched.jobs", rep.records.len() as f64);
        bump(c, "sched.attempts", rep.attempts.len() as f64);
        bump(c, "sched.requeues", f64::from(rep.requeues()));
        let recovery: f64 = rep
            .records
            .iter()
            .filter_map(|r| r.breakdown)
            .map(|b| b.recovery)
            .sum();
        bump(c, "sched.recovery_s", recovery);
        bump(c, "trace.kb", rep.trace_json.len() as f64 / 1024.0);

        let kill_at = f.killed.kill_after;
        let mut storage = MemStorage::default();
        if self.traced_incarnation(f, &mut storage, kill_at, sp)? {
            return Err(format!("{}: serve was not killed at {kill_at:?}", f.name));
        }
        if !self.traced_incarnation(f, &mut storage, None, sp)? {
            return Err(format!("{}: serve restart was killed", f.name));
        }
        bump(c, "serve.journal_kb", storage.bytes.len() as f64 / 1024.0);
        Ok(())
    }

    fn virt(&self) -> (f64, f64) {
        self.virt
            .iter()
            .fold((0.0, 0.0), |(e, c), v| (e + v.0, c + v.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobfiles_are_seeded_and_parse() {
        assert_eq!(jobfile(3, 1), jobfile(3, 1));
        assert_ne!(jobfile(3, 1).0, jobfile(4, 1).0);
        assert_ne!(jobfile(3, 1).0, jobfile(3, 2).0);
        assert!(BatchSpec::parse(&jobfile(3, 1).0).is_ok());
        for m in MACHINES {
            assert!(jobfile(3, 1).0.contains(&format!("machine={m}")), "{m}");
        }
    }

    #[test]
    fn json_numbers_are_read_by_key() {
        let json = "{\n  \"submitted\": 21,\n  \"done\": 20,\n  \"horizon_s\": 0.0125\n}\n";
        assert_eq!(json_number(json, "submitted"), Some(21.0));
        assert_eq!(json_number(json, "done"), Some(20.0));
        assert_eq!(json_number(json, "horizon_s"), Some(0.0125));
        assert_eq!(json_number(json, "missing"), None);
    }
}
