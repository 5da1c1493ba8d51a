//! `pipeline`: the user's edit–check–run loop. One operation is
//! `vpcec P --lint`, then `vpcec P --verify`, then the default
//! `vpcec P`, all through `vpce::cli::run`. The programs are seeded
//! MM/SWIM/CFFT/irregular/SAXPY sizes at 4 and 16 ranks. Each round
//! also runs one bare `--verify` of MM at 64 ranks, on fixed inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cluster_sim::ClusterConfig;
use lmad::Granularity;
use polaris_be::BackendOptions;
use spmd_rt::{ExecMode, FaultSpec, Schedule};
use vpce::cli::{self, CliArgs, RunOutput};
use vpce_testkit::rng::Xoshiro256pp;
use vpce_trace::Tracer;
use vpce_workloads::{cfft, irregular, mm, swim};

use crate::check::{self, Check};
use crate::spans::Spans;
use crate::study::{count_run, grain_span};
use crate::{bump, Counters, Verdict, Workload};

/// Options under which a plan's collect regions overlap: coarse grain
/// with a cyclic schedule, the 5.6 overlap check switched off.
const RACY: &str = "--grain coarse --schedule cyclic --unsafe-collect";

/// SAXPY with a broadcast scalar; its result has a closed form.
const SAXPY: &str = r"
      PROGRAM SAXPY
      PARAMETER (N = 96)
      REAL X(N), Y(N)
      REAL A
      INTEGER I
      A = 2.5
      DO I = 1, N
        X(I) = REAL(I)
        Y(I) = REAL(N - I)
      ENDDO
      DO I = 1, N
        Y(I) = Y(I) + A * X(I)
      ENDDO
      END
";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mm,
    Swim,
    Cfft,
    Irregular,
    Saxpy,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::Mm,
        Kind::Swim,
        Kind::Cfft,
        Kind::Irregular,
        Kind::Saxpy,
    ];

    fn source(self) -> &'static str {
        match self {
            Kind::Mm => mm::SOURCE,
            Kind::Swim => swim::SOURCE,
            Kind::Cfft => cfft::SOURCE,
            Kind::Irregular => irregular::SOURCE,
            Kind::Saxpy => SAXPY,
        }
    }

    /// The seeded size of one program. Sizes are drawn from narrow
    /// bands where the cost of an operation is flat: the advisor's
    /// middle-grain compile of 16-rank MM costs 1.1 s at N=60, 1.5 s at
    /// N=62 and 64 and 0.5 s at N=66, so a wider band would let the
    /// seed, not the program, set the round's wall time.
    fn size(self, ranks: usize, rng: &mut Xoshiro256pp) -> (&'static str, i64) {
        match (self, ranks) {
            (Kind::Mm, 16) => ("N", 62 + 2 * rng.range_i64(0, 1)),
            (Kind::Mm, _) => ("N", 64 + 2 * rng.range_i64(0, 2)),
            (Kind::Swim, _) => ("N", 44 + 2 * rng.range_i64(0, 2)),
            (Kind::Cfft, _) => ("M", 8 + rng.range_i64(0, 1)),
            (Kind::Irregular, _) => ("N", 512 + 8 * rng.range_i64(0, 2)),
            (Kind::Saxpy, _) => ("N", 1024 + 16 * rng.range_i64(0, 2)),
        }
    }

    /// Programs of this kind per rank count in one round. The mix puts
    /// each percentile inside one kind of operation instead of between
    /// two: of the 18 operations, the median falls among the eight
    /// 4-rank MM and 16-rank SWIM (about 0.3 s each) and the 90th
    /// percentile among the three 16-rank MM.
    fn copies(self, ranks: usize) -> usize {
        match (self, ranks) {
            (Kind::Mm, 4) | (Kind::Swim, 16) => 4,
            (Kind::Mm, _) => 3,
            _ => 1,
        }
    }

    /// Native reference arrays by program array name.
    fn reference(self, size: i64) -> Vec<(&'static str, Vec<f64>)> {
        let n = size as usize;
        match self {
            Kind::Mm => {
                let (a, b, c) = mm::reference(n);
                vec![("A", a), ("B", b), ("C", c)]
            }
            Kind::Swim => {
                let s = swim::reference(n);
                vec![
                    ("U", s.u),
                    ("V", s.v),
                    ("P", s.p),
                    ("CU", s.cu),
                    ("CV", s.cv),
                    ("Z", s.z),
                    ("H", s.h),
                    ("UNEW", s.unew),
                    ("VNEW", s.vnew),
                    ("PNEW", s.pnew),
                ]
            }
            Kind::Cfft => {
                let (w, winv) = cfft::reference(size as u32);
                vec![("W", w), ("WINV", winv)]
            }
            Kind::Irregular => {
                let (a, idx, b) = irregular::reference(n);
                vec![
                    ("A", a),
                    ("IDX", idx.iter().map(|&i| i as f64).collect()),
                    ("B", b),
                ]
            }
            Kind::Saxpy => {
                let x: Vec<f64> = (1..=n).map(|i| i as f64).collect();
                let y = (1..=n).map(|i| (n - i) as f64 + 2.5 * i as f64).collect();
                vec![("X", x), ("Y", y)]
            }
        }
    }
}

/// One program of the round and the three invocations on it.
struct Program {
    label: String,
    kind: Kind,
    size: i64,
    ranks: usize,
    lint: CliArgs,
    verify: CliArgs,
    default: CliArgs,
    /// `--lint` of the racy variant (see `check_racy`).
    racy_lint: CliArgs,
}

/// The three outputs of one operation.
#[derive(Clone, PartialEq)]
struct Out {
    lint: (i32, String),
    verify: (i32, String),
    default: (i32, String),
}

pub struct Pipeline {
    programs: Vec<Program>,
    /// The 64-rank `--verify` run after the programs.
    many_verify: CliArgs,
    last: Vec<Option<Out>>,
    /// First checked output per program, with its verdict.
    first: Vec<Option<(Out, Verdict)>>,
    /// Simulated elapsed and communication time per program.
    virt: Vec<(f64, f64)>,
}

fn args(argv: &str) -> Result<CliArgs, String> {
    let v: Vec<String> = argv.split_whitespace().map(String::from).collect();
    cli::parse_args(&v).map_err(|e| format!("`{argv}`: {e}"))
}

/// `vpce::cli::run`, with a panic turned into an error.
fn run_cli(source: &str, a: &CliArgs) -> Result<RunOutput, String> {
    match catch_unwind(AssertUnwindSafe(|| cli::run(source, a))) {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(e)) => Err(e.to_string()),
        Err(panic) => Err(panic_message(panic.as_ref())),
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// The granularity the default run reports it ran at.
fn reported_grain(text: &str) -> Option<Granularity> {
    let line = text.lines().find(|l| l.ends_with(" granularity"))?;
    let name = line.trim_end_matches(" granularity").rsplit(' ').next()?;
    Granularity::ALL.into_iter().find(|g| g.name() == name)
}

impl Pipeline {
    pub fn setup(seed: u64) -> Result<Self, String> {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut programs = Vec::new();
        for ranks in [4, 16] {
            for kind in Kind::ALL
                .into_iter()
                .flat_map(|k| std::iter::repeat_n(k, k.copies(ranks)))
            {
                let (param, size) = kind.size(ranks, &mut rng);
                let base = format!("p.f --nodes {ranks} --param {param}={size}");
                programs.push(Program {
                    label: format!("{kind:?} {param}={size} on {ranks}"),
                    kind,
                    size,
                    ranks,
                    lint: args(&format!("{base} --lint"))?,
                    verify: args(&format!("{base} --verify"))?,
                    default: args(&base)?,
                    racy_lint: args(&format!("{base} --lint {RACY}"))?,
                });
            }
        }
        let n = programs.len();
        let mut p = Pipeline {
            programs,
            many_verify: args("mm.f --nodes 64 --param N=64 --verify")?,
            last: vec![None; n],
            first: vec![None; n],
            virt: vec![(0.0, 0.0); n],
        };
        // One untimed operation of each kind.
        p.run(0)?;
        let _ = p.run(n);
        Ok(p)
    }

    fn run_program(&self, i: usize) -> Result<Out, String> {
        let p = &self.programs[i];
        let src = p.kind.source();
        let call = |a: &CliArgs| run_cli(src, a).map(|o| (o.exit, o.text));
        let out = Out {
            lint: call(&p.lint)?,
            verify: call(&p.verify)?,
            default: call(&p.default)?,
        };
        if out.default.0 != 0 {
            return Err(format!("{}: default run exited {}", p.label, out.default.0));
        }
        Ok(out)
    }

    /// Check one operation's outputs against the native references,
    /// the run's dynamic conflict ledger and its completion.
    fn check_first(&mut self, i: usize, out: &Out) -> Check {
        let p = &self.programs[i];
        let what = p.label.as_str();
        if !out
            .default
            .1
            .contains("results identical to sequential execution: true")
        {
            return Err(format!(
                "{what}: parallel run differs from the sequential run"
            ));
        }
        let grain = reported_grain(&out.default.1).ok_or(format!("{what}: no granularity line"))?;
        // Re-run the plan the default run chose, to read its arrays.
        let opts = BackendOptions::new(p.ranks).granularity(grain);
        let params = [(p.default.params[0].0.as_str(), p.size)];
        let c = vpce::compile(p.kind.source(), &params, &opts).map_err(|e| e.to_string())?;
        let rep = spmd_rt::execute(&c.program, &ClusterConfig::paper_n(p.ranks), ExecMode::Full);
        let comm_line = format!(
            "  communication {:.6}s | {} wire messages | {} wire bytes",
            rep.comm_time, rep.net.p2p_messages, rep.net.p2p_bytes
        );
        if !out.default.1.contains(&comm_line) {
            return Err(format!(
                "{what}: re-run plan differs from the one the default run executed"
            ));
        }
        for (name, want) in p.kind.reference(p.size) {
            let slot = c.program.arrays.iter().position(|(n, _)| n == name);
            let slot = slot.ok_or(format!("{what}: no array {name}"))?;
            check::arrays_match(&format!("{what} {name}"), &rep.arrays[slot], &want, 1e-9)?;
        }
        check::lint_covers_dynamic(what, out.lint.0, rep.rma_conflicts.len())?;
        check::no_deadlock_on_completed_run(what, &out.verify.1)?;
        if p.ranks == 4 && matches!(p.kind, Kind::Mm | Kind::Swim | Kind::Cfft) {
            self.check_racy(i)?;
        }
        self.virt[i] = (rep.elapsed, rep.comm_time);
        Ok(())
    }

    /// The lint check on inputs that do race: the program compiled
    /// with the options in `RACY` runs in `Full` mode, its dynamic
    /// ledger must record a conflict (the regions overlap by
    /// construction), and `--lint` with the same options must then not
    /// be clean. Only the regular programs: in the irregular gather
    /// the race corrupts the index array and the run stops on an
    /// out-of-bounds load.
    fn check_racy(&self, i: usize) -> Check {
        let p = &self.programs[i];
        let what = format!("{} {RACY}", p.label);
        let opts = BackendOptions::new(p.ranks)
            .granularity(Granularity::Coarse)
            .schedule(Schedule::Cyclic)
            .unsafe_collect(true);
        let params = [(p.default.params[0].0.as_str(), p.size)];
        let c = vpce::compile(p.kind.source(), &params, &opts).map_err(|e| e.to_string())?;
        let rep = spmd_rt::execute(&c.program, &ClusterConfig::paper_n(p.ranks), ExecMode::Full);
        let lint = run_cli(p.kind.source(), &p.racy_lint)?;
        if rep.rma_conflicts.is_empty() {
            return Err(format!("{what}: the run recorded no RMA conflict"));
        }
        check::lint_covers_dynamic(&what, lint.exit, rep.rma_conflicts.len())
    }

    /// `vpce::cli::run` as calls into each layer, in the order it makes
    /// them, for one of the three invocations.
    fn traced_cli(
        &self,
        src: &str,
        a: &CliArgs,
        sp: &mut Spans,
        c: &mut Counters,
    ) -> Result<(), String> {
        let cluster = ClusterConfig::paper_n(a.nodes);
        let params: Vec<(&str, i64)> = a.params.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let front = |sp: &mut Spans| {
            sp.span("fe", |_| polaris_fe::compile(src, &params))
                .map_err(|e| e.to_string())
        };
        // The simulate-three-times advisor (`vpce::advise_granularity`).
        let grain = sp.span("advisor", |sp| {
            let mut best: Option<(Granularity, f64)> = None;
            for g in Granularity::ALL {
                let analyzed = front(sp)?;
                let opts = BackendOptions::new(a.nodes).granularity(g);
                let compiled = sp.span(grain_span(g), |_| {
                    polaris_be::compile_backend(&analyzed, &opts)
                });
                let rep = sp.span("exec.analytic", |_| {
                    spmd_rt::execute(&compiled.program, &cluster, ExecMode::Analytic)
                });
                count_run(c, &rep, a.nodes);
                if best.is_none_or(|(_, t)| rep.comm_time < t) {
                    best = Some((g, rep.comm_time));
                }
            }
            Ok::<_, String>(best.expect("three candidates").0)
        })?;
        let analyzed = front(sp)?;
        let opts = BackendOptions::new(a.nodes).granularity(grain);
        let compiled = sp.span(grain_span(grain), |_| {
            polaris_be::compile_backend(&analyzed, &opts)
        });
        bump(c, "be.transfers", compiled.program.comm_summary().0 as f64);
        if a.lint {
            let lo = vpce::LintOptions {
                outputs_live: opts.outputs_live,
            };
            sp.span("lint", |_| {
                vpce::lint(&compiled.program, &compiled.report, &lo).render_human()
            });
            return Ok(());
        }
        if a.verify {
            let policy = mpi2::TransportPolicy::from_config(&cluster);
            let vo = commcheck::VerifyOptions::default();
            let rep = sp.span("verify", |_| {
                catch_unwind(AssertUnwindSafe(|| {
                    commcheck::verify(&compiled.program, &policy, &FaultSpec::off(), &vo)
                }))
            });
            let rep = rep.map_err(|p| panic_message(p.as_ref()))?;
            bump(c, "verify.states", rep.states as f64);
            sp.span("report", |_| rep.render_human());
            return Ok(());
        }
        let rep = sp.span("exec.full", |_| {
            spmd_rt::try_execute_traced(
                &compiled.program,
                &cluster,
                ExecMode::Full,
                Tracer::disabled(),
                FaultSpec::off(),
            )
        });
        let rep = rep.map_err(|e| e.to_string())?;
        count_run(c, &rep, a.nodes);
        let seq = sp.span("seq", |_| {
            spmd_rt::execute_sequential(&compiled.program, &cluster.node.cpu, ExecMode::Full)
        });
        sp.span("report", |_| {
            let mut s = vpce::report::describe_comm(&rep.rank_stats);
            s.push_str(&vpce::report::describe_transport(
                &mpi2::TransportPolicy::from_config(&cluster),
                &rep.rank_stats,
            ));
            (s, rep.arrays == seq.arrays)
        });
        Ok(())
    }
}

impl Workload for Pipeline {
    fn ops(&self) -> usize {
        self.programs.len() + 1
    }

    fn run(&mut self, i: usize) -> Result<(), String> {
        if i == self.programs.len() {
            let out = run_cli(mm::SOURCE, &self.many_verify)?;
            return check::no_deadlock_on_completed_run("MM N=64 on 64 --verify", &out.text);
        }
        self.last[i] = Some(self.run_program(i)?);
        Ok(())
    }

    fn check(&mut self, i: usize) -> Verdict {
        if i == self.programs.len() {
            return Verdict::Pass;
        }
        let Some(out) = self.last[i].clone() else {
            return Verdict::Wrong("operation left no output".into());
        };
        match &self.first[i] {
            // The toolchain is deterministic: later rounds must repeat
            // the checked first round byte for byte.
            Some((first, verdict)) if *first == out => verdict.clone(),
            Some(_) => Verdict::Wrong(format!(
                "{}: output differs from round 1",
                self.programs[i].label
            )),
            None => {
                let verdict = match self.check_first(i, &out) {
                    Ok(()) => Verdict::Pass,
                    Err(e) => Verdict::Wrong(e),
                };
                self.first[i] = Some((out, verdict.clone()));
                verdict
            }
        }
    }

    fn traced(&mut self, i: usize, sp: &mut Spans, c: &mut Counters) -> Result<(), String> {
        if i == self.programs.len() {
            return self.traced_cli(mm::SOURCE, &self.many_verify, sp, c);
        }
        let p = &self.programs[i];
        let src = p.kind.source();
        for a in [&p.lint, &p.verify, &p.default] {
            self.traced_cli(src, a, sp, c)?;
        }
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
    fn granularity_line_parses() {
        let text = "MM: 4 ranks, middle granularity\n  sequential ...\n";
        assert_eq!(reported_grain(text), Some(Granularity::Middle));
        assert_eq!(reported_grain("no such line"), None);
    }

    #[test]
    fn saxpy_reference_is_the_closed_form() {
        let r = Kind::Saxpy.reference(4);
        assert_eq!(r[1].1, vec![3.0 + 2.5, 2.0 + 5.0, 1.0 + 7.5, 10.0]);
    }

    #[test]
    fn arrays_check_rejects_a_perturbed_reference() {
        let mut want = Kind::Mm.reference(8).remove(2).1;
        let got = want.clone();
        assert!(check::arrays_match("C", &got, &want, 1e-9).is_ok());
        want[5] += 1e-3;
        assert!(check::arrays_match("C", &got, &want, 1e-9).is_err());
    }
}
