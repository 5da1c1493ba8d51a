//! `study`: the paper's analytic evaluation, one operation per cell
//! (compile, then execute in `ExecMode::Analytic` at a fixed grain).
//!
//! Cells: Table 1 (MM 256/512/1024 on 1/2/4 nodes, coarse grain as
//! the Table 1 sweep uses), Table 2 (MM block and cyclic at 1024,
//! SWIM 512, CFFT2INIT M=11, each at fine/middle/coarse on 4 nodes),
//! and fine-grain MM/SWIM/CFFT cells at 16 and 64 ranks on each
//! machine of the zoo, at seeded sizes.

use cluster_sim::ClusterConfig;
use lmad::Granularity;
use polaris_be::BackendOptions;
use spmd_rt::{ExecMode, RunReport, Schedule};
use vpce_machine::MachineSpec;
use vpce_testkit::rng::Xoshiro256pp;
use vpce_workloads::{cfft, mm, swim};

use crate::check::{self, Check};
use crate::spans::Spans;
use crate::{bump, Counters, Verdict, Workload};

/// The machine zoo the many-rank cells run on.
pub const ZOO: [&str; 4] = ["paper", "torus3d", "crossbar", "fattree"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mm,
    Swim,
    Cfft,
}

impl Kind {
    fn source(self) -> (&'static str, &'static str) {
        match self {
            Kind::Mm => (mm::SOURCE, "N"),
            Kind::Swim => (swim::SOURCE, "N"),
            Kind::Cfft => (cfft::SOURCE, "M"),
        }
    }
}

struct Cell {
    label: String,
    kind: Kind,
    size: i64,
    ranks: usize,
    grain: Granularity,
    sched: Schedule,
    cluster: ClusterConfig,
    /// The fine-grain cell of the same program, when this cell is
    /// another grain of it.
    fine: Option<usize>,
    /// Small enough to also run in `Full` mode for the timing check.
    full_check: bool,
}

impl Cell {
    fn opts(&self) -> BackendOptions {
        BackendOptions::new(self.ranks)
            .granularity(self.grain)
            .schedule(self.sched)
    }
    fn params(&self) -> [(&'static str, i64); 1] {
        [(self.kind.source().1, self.size)]
    }
}

/// What one cell's operation produced.
#[derive(Debug, Clone, PartialEq)]
struct Out {
    elapsed: f64,
    comm: f64,
    /// Elements the run moved: the RMA payload bytes of every rank
    /// over 8-byte elements.
    moved_elems: u64,
    /// Elements the compiled plan says it moves (scatter + collect).
    plan_elems: u64,
}

pub struct Study {
    cells: Vec<Cell>,
    last: Vec<Option<Out>>,
    /// Each operation's first checked output and its verdict.
    first: Vec<Option<(Out, Verdict)>>,
}

/// The span name of a backend compile at grain `g`.
pub fn grain_span(g: Granularity) -> &'static str {
    match g {
        Granularity::Fine => "be.fine",
        Granularity::Middle => "be.middle",
        Granularity::Coarse => "be.coarse",
    }
}

/// Add a run's runtime, MPI and network counts to `c`.
pub fn count_run(c: &mut Counters, rep: &RunReport, ranks: usize) {
    bump(c, "exec.ranks", ranks as f64);
    for s in &rep.rank_stats {
        bump(c, "mpi.eager_ops", s.eager_ops as f64);
        bump(c, "mpi.rdvz_ops", s.rdvz_ops as f64);
        bump(c, "mpi.pool_waits", s.pool_waits as f64);
        bump(c, "mpi.doorbells", s.doorbells as f64);
        bump(c, "mpi.fallbacks", s.eager_fallbacks as f64);
    }
    bump(c, "net.messages", rep.net.p2p_messages as f64);
    let wire = rep.net.p2p_bytes + rep.net.broadcast_bytes;
    bump(c, "net.wire_mb", wire as f64 / (1024.0 * 1024.0));
    bump(c, "net.broadcasts", rep.net.broadcasts as f64);
    bump(c, "net.contention_wait_s", rep.net.contention_wait);
}

/// Resolve a zoo machine the way a `.machine` file is loaded: dump
/// the built-in description, parse it back, lower it to `n` nodes.
pub fn lower_machine(name: &str, n: usize) -> Result<ClusterConfig, String> {
    let spec = MachineSpec::builtin(name).ok_or(format!("no built-in machine `{name}`"))?;
    let parsed = vpce_machine::parse::parse(&spec.dump()).map_err(|e| format!("{name}: {e}"))?;
    parsed
        .lower(n)
        .map_err(|e| format!("{name} at {n} nodes: {e}"))
}

impl Study {
    pub fn setup(seed: u64, sp: &mut Spans) -> Result<Self, String> {
        let mut cells = Vec::new();
        for n in [256, 512, 1024] {
            for p in [1, 2, 4] {
                cells.push(Cell {
                    label: format!("table1 MM {n} on {p}"),
                    kind: Kind::Mm,
                    size: n,
                    ranks: p,
                    grain: Granularity::Coarse,
                    sched: Schedule::Block,
                    cluster: ClusterConfig::paper_n(p),
                    fine: None,
                    full_check: false,
                });
            }
        }
        let table2 = [
            ("MM 1024 block", Kind::Mm, 1024, Schedule::Block),
            ("MM 1024 cyclic", Kind::Mm, 1024, Schedule::Cyclic),
            ("SWIM 512", Kind::Swim, 512, Schedule::Block),
            ("CFFT2INIT M=11", Kind::Cfft, 11, Schedule::Block),
        ];
        for (name, kind, size, sched) in table2 {
            let fine = cells.len();
            for grain in Granularity::ALL {
                cells.push(Cell {
                    label: format!("table2 {name} {}", grain.name()),
                    kind,
                    size,
                    ranks: 4,
                    grain,
                    sched,
                    cluster: ClusterConfig::paper_4node(),
                    fine: (grain != Granularity::Fine).then_some(fine),
                    full_check: false,
                });
            }
        }
        // Seeded sizes: each zoo cell draws its own small offset, so a
        // seed changes the inputs without changing the shape of the
        // work (rows per rank, message pattern).
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let machines = sp.span("machine", |_| {
            let mut out = Vec::new();
            for name in ZOO {
                out.push((name, lower_machine(name, 16)?, lower_machine(name, 64)?));
            }
            Ok::<_, String>(out)
        })?;
        for (name, c16, c64) in &machines {
            for (ranks, cluster) in [(16, c16), (64, c64)] {
                let sizes = [
                    (
                        Kind::Mm,
                        if ranks == 16 { 96 } else { 88 } + 4 * rng.range_i64(0, 3),
                    ),
                    (Kind::Swim, 96 + 8 * rng.range_i64(0, 3)),
                    (Kind::Cfft, 10 + rng.range_i64(0, 1)),
                ];
                for (kind, size) in sizes {
                    cells.push(Cell {
                        label: format!("zoo {kind:?} {size} on {ranks} {name}"),
                        kind,
                        size,
                        ranks,
                        grain: Granularity::Fine,
                        sched: Schedule::Block,
                        cluster: cluster.clone(),
                        fine: None,
                        full_check: ranks == 16,
                    });
                }
            }
        }
        let n = cells.len();
        let mut study = Study {
            cells,
            last: vec![None; n],
            first: vec![None; n],
        };
        study.warm_up()?;
        Ok(study)
    }

    /// One untimed operation per grain, and one 64-rank execution, so
    /// first-touch costs land in set-up.
    fn warm_up(&mut self) -> Result<(), String> {
        for grain in Granularity::ALL {
            let opts = BackendOptions::new(4).granularity(grain);
            let c = vpce::compile(mm::SOURCE, &[("N", 64)], &opts).map_err(|e| e.to_string())?;
            spmd_rt::execute(
                &c.program,
                &ClusterConfig::paper_4node(),
                ExecMode::Analytic,
            );
        }
        let many = self
            .cells
            .iter()
            .position(|c| c.ranks == 64)
            .expect("64-rank cells");
        self.run(many)
    }

    /// The first round's checks. A fine-grain plan that moves more than
    /// the exact region volume is a known fault (the operation fails);
    /// any other failed check is a wrong output.
    fn check_first(&self, i: usize, out: &Out) -> Verdict {
        let cell = &self.cells[i];
        let n = cell.size as u64;
        let exact = match cell.kind {
            Kind::Mm => Some(check::mm_volume(n, cell.ranks, cell.sched)),
            Kind::Cfft => Some(check::cfft_volume(cell.size as u32, cell.ranks, cell.sched)),
            Kind::Swim => None,
        };
        if let Err(e) = self.check_properties(i, out, exact) {
            return Verdict::Wrong(e);
        }
        match (cell.grain, exact) {
            (Granularity::Fine, Some(exact)) => {
                match check::equal_volume(&cell.label, out.moved_elems, exact) {
                    Ok(()) => Verdict::Pass,
                    Err(e) => Verdict::Fault(e),
                }
            }
            _ => Verdict::Pass,
        }
    }

    fn check_properties(&self, i: usize, out: &Out, exact: Option<u64>) -> Check {
        let cell = &self.cells[i];
        let what = cell.label.as_str();
        check::comm_within_elapsed(what, out.comm, out.elapsed)?;
        check::run_moves_the_plan(what, out.moved_elems, out.plan_elems)?;
        match (cell.grain, exact) {
            // Never less than the exact volume: a run that moved less
            // would lose data.
            (_, Some(exact)) => check::not_below_fine(what, out.moved_elems, exact)?,
            (Granularity::Fine, None) => {}
            (_, None) => {
                let fine = cell.fine.and_then(|f| self.last[f].as_ref());
                let fine = fine.ok_or("fine-grain cell of this program did not run")?;
                check::not_below_fine(what, out.moved_elems, fine.moved_elems)?;
            }
        }
        if cell.full_check {
            let c = vpce::compile(cell.kind.source().0, &cell.params(), &cell.opts())
                .map_err(|e| e.to_string())?;
            let full = spmd_rt::execute(&c.program, &cell.cluster, ExecMode::Full);
            check::analytic_equals_full(
                what,
                (out.elapsed, out.comm),
                (full.elapsed, full.comm_time),
            )?;
        }
        Ok(())
    }
}

impl Workload for Study {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn run(&mut self, i: usize) -> Result<(), String> {
        let cell = &self.cells[i];
        let c = vpce::compile(cell.kind.source().0, &cell.params(), &cell.opts())
            .map_err(|e| format!("{}: {e}", cell.label))?;
        let rep = spmd_rt::execute(&c.program, &cell.cluster, ExecMode::Analytic);
        self.last[i] = Some(Out {
            elapsed: rep.elapsed,
            comm: rep.comm_time,
            moved_elems: check::payload_bytes(&rep.rank_stats) / 8,
            plan_elems: c.program.comm_summary().1,
        });
        Ok(())
    }

    fn check(&mut self, i: usize) -> Verdict {
        let Some(out) = self.last[i].clone() else {
            return Verdict::Wrong("operation left no output".into());
        };
        match &self.first[i] {
            // Later rounds must repeat the checked first round exactly:
            // compile and analytic execution are deterministic.
            Some((first, verdict)) if *first == out => verdict.clone(),
            Some((first, _)) => Verdict::Wrong(format!(
                "{}: {out:?} differs from round 1 {first:?}",
                self.cells[i].label
            )),
            None => {
                let verdict = self.check_first(i, &out);
                self.first[i] = Some((out, verdict.clone()));
                verdict
            }
        }
    }

    fn traced(&mut self, i: usize, sp: &mut Spans, c: &mut Counters) -> Result<(), String> {
        let cell = &self.cells[i];
        let (src, _) = cell.kind.source();
        let analyzed = sp
            .span("fe", |_| polaris_fe::compile(src, &cell.params()))
            .map_err(|e| e.to_string())?;
        let opts = cell.opts();
        let compiled = sp.span(grain_span(cell.grain), |_| {
            polaris_be::compile_backend(&analyzed, &opts)
        });
        bump(c, "be.transfers", compiled.program.comm_summary().0 as f64);
        let rep = sp.span("exec.analytic", |_| {
            spmd_rt::execute(&compiled.program, &cell.cluster, ExecMode::Analytic)
        });
        count_run(c, &rep, cell.ranks);
        Ok(())
    }

    fn virt(&self) -> (f64, f64) {
        self.first
            .iter()
            .flatten()
            .fold((0.0, 0.0), |(e, c), (o, _)| (e + o.elapsed, c + o.comm))
    }
}
