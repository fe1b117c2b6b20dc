//! Property tests for the sweep runner's scheduling machinery: for
//! arbitrary job lists and worker counts, no job is lost or duplicated,
//! results come back in canonical (submission) order, and cache hits
//! are indistinguishable from fresh runs.

use std::sync::atomic::{AtomicUsize, Ordering};
use streamline_repro::prelude::*;
use streamline_repro::tpharness::sweep::{SweepJob, SweepRunner};
use streamline_repro::tptrace::Mix;
use tpcheck::{check, ensure};

/// `map` over an arbitrary item list with an arbitrary worker count
/// returns exactly one output per item, in item order.
#[test]
fn map_loses_nothing_and_keeps_order() {
    check("map keeps every item in order", 64, |g| {
        let items = g.vec(0..300, |g| g.u64_in(0..1_000_000));
        let workers = g.usize_in(1..9);
        let runner = SweepRunner::new().with_workers(workers);
        let calls = AtomicUsize::new(0);
        let out = runner.map(&items, |i, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            // Unequal per-item cost skews which worker gets which item,
            // exercising out-of-order completion.
            let mut acc = x;
            for _ in 0..(x % 97) {
                acc = acc.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
            }
            (i, x, acc)
        });
        ensure!(
            calls.load(Ordering::Relaxed) == items.len(),
            "{} calls for {} items ({workers} workers)",
            calls.load(Ordering::Relaxed),
            items.len()
        );
        ensure!(out.len() == items.len(), "lost or duplicated outputs");
        for (i, &(oi, ox, _)) in out.iter().enumerate() {
            ensure!(oi == i, "slot {i} holds output {oi}");
            ensure!(ox == items[i], "slot {i} holds the wrong item");
        }
        Ok(())
    });
}

/// `map` output is a pure function of the item list: any two worker
/// counts produce identical output vectors.
#[test]
fn map_is_worker_count_independent() {
    check("map ignores worker count", 32, |g| {
        let items = g.vec(1..200, |g| g.u64_in(0..1_000));
        let wa = g.usize_in(1..9);
        let wb = g.usize_in(1..9);
        let f = |i: usize, x: &u64| x.wrapping_mul(31).wrapping_add(i as u64);
        let a = SweepRunner::new().with_workers(wa).map(&items, f);
        let b = SweepRunner::new().with_workers(wb).map(&items, f);
        ensure!(a == b, "{wa} vs {wb} workers disagreed");
        Ok(())
    });
}

/// For arbitrary job sequences drawn from a small pool (with
/// duplicates), `run` returns, at every position, exactly the report a
/// direct serial run of that job would produce — whether the job was
/// freshly simulated, deduplicated within the batch, or served from the
/// cache of an earlier batch.
#[test]
fn run_matches_reference_for_arbitrary_job_sequences() {
    let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    let pool: Vec<SweepJob> = [
        ("spec06.bzip2", TemporalKind::None),
        ("spec06.bzip2", TemporalKind::Streamline),
        ("gap.tc", TemporalKind::Triangel),
    ]
    .iter()
    .map(|&(name, kind)| {
        SweepJob::single(
            workloads::by_name(name).unwrap(),
            base.clone().temporal(kind),
        )
    })
    .collect();
    // Reference reports from plain serial runs, one per distinct job.
    let reference: Vec<String> = pool
        .iter()
        .map(|j| match j {
            SweepJob::Single { workload, exp } => format!("{:?}", run_single(workload, exp)),
            SweepJob::Mix { .. } => unreachable!(),
        })
        .collect();
    // One shared runner across cases: later cases hit the cache, which
    // must be indistinguishable from the fresh simulations of case 0.
    let runner = SweepRunner::new();
    check("run matches reference per position", 24, |g| {
        let picks = g.vec(1..12, |g| g.usize_in(0..3));
        let jobs: Vec<SweepJob> = picks.iter().map(|&p| pool[p].clone()).collect();
        let reports = runner.run(&jobs);
        ensure!(reports.len() == jobs.len(), "report count mismatch");
        for (slot, (&p, r)) in picks.iter().zip(&reports).enumerate() {
            ensure!(
                format!("{r:?}") == reference[p],
                "slot {slot} (pool job {p}) differs from its reference run"
            );
        }
        Ok(())
    });
    assert_eq!(
        runner.cached_jobs(),
        pool.len(),
        "cache holds one entry per distinct key"
    );
}

/// Two runs of one workload under one experiment that differ only in
/// the seed are two jobs: each gets the report a direct run of that
/// seed produces, and each holds its own cache entry. Likewise two
/// mixes that differ in one member's seed.
#[test]
fn reseeded_jobs_never_alias_in_the_cache() {
    use streamline_repro::tpharness::wire::encode_sim_report;
    let bytes = |reports: &[SimReport]| reports.iter().map(encode_sim_report).collect::<Vec<_>>();
    let exp = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    let pool = workloads::memory_intensive();
    check("distinct seeds are distinct jobs", 3, |g| {
        let w = &pool[g.usize_in(0..pool.len())];
        let a = g.next_u64();
        let b = a ^ g.u64_in(1..u64::MAX);
        let direct = [a, b].map(|seed| run_single(&w.with_seed(seed), &exp));
        let jobs = [a, b].map(|seed| SweepJob::single(w.with_seed(seed), exp.clone()));

        let runner = SweepRunner::new();
        ensure!(
            bytes(&runner.run(&jobs)) == bytes(&direct),
            "{}: seeds {a:#x} and {b:#x} were served one report",
            w.name
        );
        ensure!(
            runner.cached_jobs() == 2,
            "{} cache entries for 2 seeds",
            runner.cached_jobs()
        );
        let again = runner.run(&[jobs[1].clone(), jobs[0].clone(), jobs[1].clone()]);
        ensure!(
            bytes(&again) == bytes(&[direct[1].clone(), direct[0].clone(), direct[1].clone()]),
            "a repeated job was served another seed's report"
        );
        ensure!(
            runner.cached_jobs() == 2,
            "a repeated job added a cache entry"
        );
        Ok(())
    });

    let [bfs, mcf] = ["gap.bfs", "spec17.mcf"].map(|n| workloads::by_name(n).unwrap());
    let mixes = [mcf.clone(), mcf.with_seed(7)].map(|member| Mix {
        index: 0,
        workloads: vec![bfs.clone(), member],
    });
    let direct = [run_mix(&mixes[0], &exp), run_mix(&mixes[1], &exp)];
    let runner = SweepRunner::new();
    let swept = runner.run(&mixes.map(|m| SweepJob::mix(m, exp.clone())));
    assert_eq!(
        bytes(&swept),
        bytes(&direct),
        "a reseeded mix member was ignored"
    );
    assert_eq!(runner.cached_jobs(), 2);
}
