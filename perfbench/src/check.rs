//! Output checks. Each compares a program output against a value
//! computed apart from the program (a closed form, a native reference)
//! or against a property the method must have. None compares against
//! a stored copy of an earlier output.

use mpi2::RankStats;
use spmd_rt::Schedule;
use vpce_sched::{AttemptLog, BatchReport, JobStatus};

pub type Check = Result<(), String>;

/// Rows (iterations) the master keeps of a `trips`-iteration loop
/// split over `p` ranks.
fn master_share(trips: u64, p: usize, sched: Schedule) -> u64 {
    sched.assignment(trips, 0, p).2
}

/// Exact §5 region volume, in elements, of MM (`A`, `B`, `C` all
/// `n × n`) on `p` ranks: the init loop collects the slaves' rows of
/// `A` and `B`; the multiply scatters all of `B` to every slave that
/// owns rows (each already holds its own rows of `A`) and collects the
/// slaves' rows of `C`.
pub fn mm_volume(n: u64, p: usize, sched: Schedule) -> u64 {
    let slave_rows = n - master_share(n, p, sched);
    let busy_slaves = (1..p).filter(|&r| sched.assignment(n, r, p).2 > 0).count() as u64;
    3 * n * slave_rows + busy_slaves * n * n
}

/// Exact region volume of CFFT2INIT at `2^m` points on `p` ranks:
/// every iteration writes two elements of `W` and two of `WINV`, and
/// the slaves' iterations are collected.
pub fn cfft_volume(m: u32, p: usize, sched: Schedule) -> u64 {
    let n = 1u64 << m;
    4 * (n - master_share(n, p, sched))
}

/// Payload bytes a run moved: every rank's PUT, GET and two-sided
/// send payload, without the wire's packet overhead.
pub fn payload_bytes(ranks: &[RankStats]) -> u64 {
    ranks
        .iter()
        .map(|s| s.bytes_put + s.bytes_got + s.bytes_sent)
        .sum()
}

/// The run moved what its compiled plan says it moves.
pub fn run_moves_the_plan(what: &str, moved_elems: u64, plan_elems: u64) -> Check {
    if moved_elems == plan_elems {
        Ok(())
    } else {
        Err(format!(
            "{what}: the run moved {moved_elems} elements, its plan {plan_elems}"
        ))
    }
}

pub fn equal_volume(what: &str, got_elems: u64, exact_elems: u64) -> Check {
    if got_elems == exact_elems {
        Ok(())
    } else {
        Err(format!(
            "{what}: fine grain moves {got_elems} elements, exact region volume is {exact_elems}"
        ))
    }
}

/// Middle and coarse grains merge regions, so they never move less
/// than the fine grain does.
pub fn not_below_fine(what: &str, elems: u64, fine_elems: u64) -> Check {
    if elems >= fine_elems {
        Ok(())
    } else {
        Err(format!(
            "{what}: moves {elems} elements, fewer than fine grain's {fine_elems}"
        ))
    }
}

/// Critical-path communication time is part of elapsed time.
pub fn comm_within_elapsed(what: &str, comm: f64, elapsed: f64) -> Check {
    if comm >= 0.0 && comm <= elapsed {
        Ok(())
    } else {
        Err(format!(
            "{what}: communication {comm} s exceeds elapsed {elapsed} s"
        ))
    }
}

/// `Analytic` mode charges the same virtual time `Full` mode measures.
pub fn analytic_equals_full(what: &str, analytic: (f64, f64), full: (f64, f64)) -> Check {
    if analytic.0.to_bits() == full.0.to_bits() && analytic.1.to_bits() == full.1.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{what}: analytic (elapsed, comm) {analytic:?} differs from full {full:?}"
        ))
    }
}

/// Arrays agree elementwise within `tol` (absolute, scaled by the
/// magnitude of the reference element when that exceeds 1).
pub fn arrays_match(what: &str, got: &[f64], want: &[f64], tol: f64) -> Check {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} elements, reference has {}",
            got.len(),
            want.len()
        ));
    }
    for (k, (g, w)) in got.iter().zip(want).enumerate() {
        if (g - w).abs() > tol * w.abs().max(1.0) || g.is_nan() != w.is_nan() {
            return Err(format!("{what}[{k}] = {g}, reference {w}"));
        }
    }
    Ok(())
}

/// The static race check is sound: if the run's dynamic RMA-conflict
/// ledger recorded a conflict, `--lint` must not report the plan
/// clean (exit 0).
pub fn lint_covers_dynamic(what: &str, lint_exit: i32, dynamic_conflicts: usize) -> Check {
    if dynamic_conflicts == 0 || lint_exit != 0 {
        Ok(())
    } else {
        Err(format!(
            "{what}: run recorded {dynamic_conflicts} RMA conflicts, lint exited {lint_exit}"
        ))
    }
}

/// A plan that ran to completion cannot deadlock (VPCE201).
pub fn no_deadlock_on_completed_run(what: &str, verify_text: &str) -> Check {
    if verify_text.contains("VPCE201") {
        Err(format!(
            "{what}: --verify reports a VPCE201 deadlock on a plan that ran to completion"
        ))
    } else {
        Ok(())
    }
}

/// Every job of the batch ended `done`.
pub fn all_done(what: &str, rep: &BatchReport) -> Check {
    match rep.records.iter().find(|r| r.status != JobStatus::Done) {
        None => Ok(()),
        Some(r) => Err(format!(
            "{what}: job {} ended {} {:?}",
            r.name,
            r.status.name(),
            r.error
        )),
    }
}

/// Attempts that overlap in time ran on disjoint node sets.
pub fn partitions_disjoint(what: &str, attempts: &[AttemptLog]) -> Check {
    for (i, a) in attempts.iter().enumerate() {
        for b in &attempts[i + 1..] {
            let concurrent = a.start < b.end && b.start < a.end;
            if concurrent {
                if let Some(n) = a
                    .partition
                    .nodes
                    .iter()
                    .find(|n| b.partition.nodes.contains(n))
                {
                    return Err(format!(
                        "{what}: {}#{} and {}#{} overlap in time and share node {n}",
                        a.job, a.attempt, b.job, b.attempt
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Each finished job's critical-path components sum to its makespan.
pub fn breakdowns_tile_makespan(what: &str, rep: &BatchReport) -> Check {
    for r in &rep.records {
        let (Some(b), Some(makespan)) = (r.breakdown, r.makespan()) else {
            return Err(format!(
                "{what}: job {} has no breakdown or makespan",
                r.name
            ));
        };
        let total = b.total();
        if (total - makespan).abs() > 1e-9 * makespan.abs().max(1e-9) {
            return Err(format!(
                "{what}: job {} components sum to {total} s, makespan {makespan} s",
                r.name
            ));
        }
    }
    Ok(())
}

/// Every job in `recovering` finished byte-identical to a fault-free
/// run.
pub fn recovered_identical(what: &str, rep: &BatchReport, recovering: &[String]) -> Check {
    for name in recovering {
        let r = rep.records.iter().find(|r| &r.name == name);
        if r.and_then(|r| r.identical) != Some(true) {
            return Err(format!("{what}: recover=on job {name} is not identical"));
        }
    }
    Ok(())
}

/// Two renderings of the same report agree byte for byte.
pub fn same_bytes(what: &str, got: &str, want: &str) -> Check {
    if got == want {
        return Ok(());
    }
    let at = got
        .bytes()
        .zip(want.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    Err(format!(
        "{what}: differs at byte {at} ({} vs {} bytes)",
        got.len(),
        want.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbus_sim::Mesh;
    use vpce_sched::{JobRecord, Partition};
    use vpce_trace::critical::Breakdown;

    #[test]
    fn mm_volume_matches_hand_count() {
        // n = 64 on 4 ranks: slaves own 48 rows. Init collects 2 * 64 * 48,
        // multiply scatters 3 * 64 * 64 and collects 64 * 48.
        assert_eq!(mm_volume(64, 4, Schedule::Block), 6144 + 12288 + 3072);
        assert_eq!(mm_volume(64, 1, Schedule::Block), 0);
        // n = 96 on 64 ranks: 2 rows each, so ranks 48..63 idle and only
        // 47 slaves receive B.
        assert_eq!(
            mm_volume(96, 64, Schedule::Block),
            3 * 96 * 94 + 47 * 96 * 96
        );
        assert!(equal_volume("mm", 21504, mm_volume(64, 4, Schedule::Block)).is_ok());
        assert!(equal_volume("mm", 21503, mm_volume(64, 4, Schedule::Block)).is_err());
    }

    #[test]
    fn moved_volume_checks_fail_on_a_wrong_run() {
        let rank = |put, got, sent| RankStats {
            bytes_put: put,
            bytes_got: got,
            bytes_sent: sent,
            ..RankStats::default()
        };
        let moved = payload_bytes(&[rank(64, 0, 0), rank(8, 16, 8)]) / 8;
        assert_eq!(moved, 12);
        assert!(run_moves_the_plan("mm", moved, 12).is_ok());
        assert!(run_moves_the_plan("mm", moved, 13).is_err());
    }

    #[test]
    fn cfft_volume_matches_hand_count() {
        // 256 points on 4 ranks: slaves run 192 iterations, 4 elements each.
        assert_eq!(cfft_volume(8, 4, Schedule::Block), 768);
    }

    #[test]
    fn grain_order_and_comm_checks_fail_on_wrong_values() {
        assert!(not_below_fine("x", 10, 10).is_ok());
        assert!(not_below_fine("x", 9, 10).is_err());
        assert!(comm_within_elapsed("x", 0.5, 1.0).is_ok());
        assert!(comm_within_elapsed("x", 1.5, 1.0).is_err());
        assert!(comm_within_elapsed("x", f64::NAN, 1.0).is_err());
        assert!(analytic_equals_full("x", (1.0, 0.5), (1.0, 0.5)).is_ok());
        assert!(analytic_equals_full("x", (1.0, 0.5), (1.0 + 1e-15, 0.5)).is_err());
    }

    #[test]
    fn arrays_check_fails_on_a_wrong_array() {
        let want = [1.0, 2.0, 3.0];
        assert!(arrays_match("a", &[1.0, 2.0, 3.0], &want, 1e-12).is_ok());
        assert!(arrays_match("a", &[1.0, 2.5, 3.0], &want, 1e-12).is_err());
        assert!(arrays_match("a", &[1.0, 2.0], &want, 1e-12).is_err());
        assert!(arrays_match("a", &[1.0, f64::NAN, 3.0], &want, 1e-12).is_err());
    }

    #[test]
    fn lint_and_verify_checks_fail_on_wrong_reports() {
        assert!(lint_covers_dynamic("p", 0, 0).is_ok());
        assert!(lint_covers_dynamic("p", 2, 3).is_ok());
        assert!(lint_covers_dynamic("p", 1, 3).is_ok());
        assert!(lint_covers_dynamic("p", 0, 1).is_err());
        assert!(no_deadlock_on_completed_run("p", "verify MM: no deadlock").is_ok());
        assert!(no_deadlock_on_completed_run("p", "error[VPCE201]: deadlock").is_err());
    }

    fn record(name: &str, status: JobStatus, b: Breakdown, end: f64) -> JobRecord {
        JobRecord {
            name: name.into(),
            tenant: "-".into(),
            ranks: 1,
            shape: Mesh::new(1, 1),
            status,
            arrival: 0.0,
            start: Some(0.0),
            end: Some(end),
            queue_wait: 0.0,
            nodes: vec![0],
            attempts: 1,
            requeues: 0,
            preemptions: 0,
            identical: Some(true),
            error: None,
            missed_deadline: false,
            breakdown: Some(b),
            net_messages: 0,
            net_bytes: 0,
        }
    }

    fn report(records: Vec<JobRecord>) -> BatchReport {
        BatchReport {
            nodes: 4,
            mesh: Mesh::new(2, 2),
            policy: vpce_sched::Policy::Backfill,
            seed: 0,
            records,
            peak_concurrent: 1,
            drained: vec![],
            horizon: 1.0,
            utilization: 0.5,
            tenant_usage: vec![],
            trace_json: String::new(),
            attempts: vec![],
        }
    }

    fn tiles(t: f64) -> Breakdown {
        Breakdown {
            compute: t / 2.0,
            wait: t / 4.0,
            queue: t / 4.0,
            ..Breakdown::default()
        }
    }

    #[test]
    fn batch_checks_fail_on_a_wrong_report() {
        let good = report(vec![record("a", JobStatus::Done, tiles(1.0), 1.0)]);
        assert!(all_done("b", &good).is_ok());
        assert!(breakdowns_tile_makespan("b", &good).is_ok());
        assert!(recovered_identical("b", &good, &["a".into()]).is_ok());

        let failed = report(vec![record("a", JobStatus::Failed, tiles(1.0), 1.0)]);
        assert!(all_done("b", &failed).is_err());
        let short = report(vec![record("a", JobStatus::Done, tiles(0.9), 1.0)]);
        assert!(breakdowns_tile_makespan("b", &short).is_err());
        let mut diverged = record("a", JobStatus::Done, tiles(1.0), 1.0);
        diverged.identical = Some(false);
        assert!(recovered_identical("b", &report(vec![diverged]), &["a".into()]).is_err());
        assert!(recovered_identical("b", &good, &["missing".into()]).is_err());
    }

    fn attempt(job: &str, start: f64, end: f64, nodes: Vec<usize>) -> AttemptLog {
        AttemptLog {
            job: job.into(),
            attempt: 0,
            start,
            end,
            partition: Partition {
                x: 0,
                y: 0,
                shape: Mesh::new(nodes.len(), 1),
                nodes,
            },
            ok: true,
        }
    }

    #[test]
    fn disjointness_fails_on_a_shared_node_at_the_same_time() {
        let ok = [
            attempt("a", 0.0, 1.0, vec![0, 1]),
            attempt("b", 0.5, 2.0, vec![2, 3]),
        ];
        assert!(partitions_disjoint("b", &ok).is_ok());
        let later = [
            attempt("a", 0.0, 1.0, vec![0, 1]),
            attempt("b", 1.0, 2.0, vec![1]),
        ];
        assert!(partitions_disjoint("b", &later).is_ok());
        let clash = [
            attempt("a", 0.0, 1.0, vec![0, 1]),
            attempt("b", 0.5, 2.0, vec![1]),
        ];
        assert!(partitions_disjoint("b", &clash).is_err());
    }

    #[test]
    fn byte_identity_fails_on_one_changed_byte() {
        assert!(same_bytes("r", "{\"a\": 1}", "{\"a\": 1}").is_ok());
        let e = same_bytes("r", "{\"a\": 2}", "{\"a\": 1}").unwrap_err();
        assert!(e.contains("byte 6"), "{e}");
    }
}
