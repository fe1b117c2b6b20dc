//! Determinism of the parallel sweep runner: for the same seeds, a
//! parallel sweep must produce reports identical to the serial path —
//! every counter, every derived statistic — and repeated parallel runs
//! must agree with each other.
//!
//! Reports are compared through their `Debug` rendering, which spells
//! out every field of every per-core, LLC, and DRAM statistic, so two
//! equal strings mean bit-identical results.

use streamline_repro::prelude::*;
use streamline_repro::tpharness::sweep::{SweepJob, SweepRunner};

/// The determinism matrix: three workloads (one per suite) crossed with
/// the baseline and all three temporal prefetchers.
fn matrix() -> Vec<SweepJob> {
    let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    let mut jobs = Vec::new();
    for name in ["spec06.mcf", "spec17.xalancbmk", "gap.bfs"] {
        let w = workloads::by_name(name).expect("registry workload");
        for kind in [
            TemporalKind::None,
            TemporalKind::Triage,
            TemporalKind::Triangel,
            TemporalKind::Streamline,
        ] {
            jobs.push(SweepJob::single(w.clone(), base.clone().temporal(kind)));
        }
    }
    jobs
}

fn render(reports: &[SimReport]) -> Vec<String> {
    reports.iter().map(|r| format!("{r:?}")).collect()
}

#[test]
fn parallel_sweep_is_identical_to_serial() {
    let jobs = matrix();
    let serial = render(&SweepRunner::serial().run(&jobs));
    let parallel = render(&SweepRunner::new().with_workers(8).run(&jobs));
    assert_eq!(serial.len(), jobs.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "job {i} ({}) diverged under 8 workers", jobs[i].key());
    }
}

#[test]
fn repeated_parallel_sweeps_agree() {
    let jobs = matrix();
    // Two fresh runners: nothing is cached, every job re-simulates.
    let first = render(&SweepRunner::new().with_workers(8).run(&jobs));
    let second = render(&SweepRunner::new().with_workers(8).run(&jobs));
    for (i, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(a, b, "job {i} ({}) varies across runs", jobs[i].key());
    }
}

#[test]
fn derived_seed_sweeps_are_deterministic_too() {
    let jobs = matrix();
    let serial = render(&SweepRunner::serial().with_base_seed(42).run(&jobs));
    let parallel = render(
        &SweepRunner::new()
            .with_workers(8)
            .with_base_seed(42)
            .run(&jobs),
    );
    assert_eq!(serial, parallel, "derived-seed sweep diverged");
}

#[test]
fn sweep_reports_match_direct_runs() {
    // The runner's canonical-seed path must agree with calling the
    // experiment runner directly, job by job.
    let jobs = matrix();
    let swept = render(&SweepRunner::new().with_workers(4).run(&jobs));
    for (job, got) in jobs.iter().zip(&swept) {
        if let SweepJob::Single { workload, exp } = job {
            let direct = format!("{:?}", run_single(workload, exp));
            assert_eq!(&direct, got, "{} differs from direct run", job.key());
        }
    }
}

#[test]
fn mix_jobs_are_deterministic_in_parallel() {
    let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    let mixes = MixGenerator::new(0xDE7).mixes(2, 3);
    let jobs: Vec<SweepJob> = mixes
        .iter()
        .flat_map(|m| {
            [
                SweepJob::mix(m.clone(), base.clone()),
                SweepJob::mix(m.clone(), base.clone().temporal(TemporalKind::Streamline)),
            ]
        })
        .collect();
    let serial = render(&SweepRunner::serial().run(&jobs));
    let parallel = render(&SweepRunner::new().with_workers(8).run(&jobs));
    assert_eq!(serial, parallel, "mix sweep diverged under 8 workers");
}

#[test]
fn a_base_seed_is_the_same_as_reseeding_every_job_by_hand() {
    use streamline_repro::tpharness::derive_seed;
    use streamline_repro::tpharness::wire::encode_sim_report;
    const BASE: u64 = 42;
    let reseed = |w: &Workload| w.with_seed(derive_seed(BASE, w.name));
    let base = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    let mix = streamline_repro::tptrace::Mix {
        index: 0,
        workloads: ["gap.bfs", "spec17.mcf"]
            .map(|n| workloads::by_name(n).unwrap())
            .to_vec(),
    };
    let mut jobs = matrix();
    jobs.truncate(2);
    jobs.push(SweepJob::mix(mix, base.temporal(TemporalKind::Streamline)));
    let by_hand: Vec<SweepJob> = jobs
        .iter()
        .map(|job| match job {
            SweepJob::Single { workload, exp } => SweepJob::single(reseed(workload), exp.clone()),
            SweepJob::Mix { mix, exp } => {
                let mut mix = mix.clone();
                mix.workloads = mix.workloads.iter().map(reseed).collect();
                SweepJob::mix(mix, exp.clone())
            }
        })
        .collect();
    let bytes = |reports: Vec<SimReport>| reports.iter().map(encode_sim_report).collect::<Vec<_>>();
    let derived = bytes(SweepRunner::new().with_base_seed(BASE).run(&jobs));
    assert_eq!(derived, bytes(SweepRunner::new().run(&by_hand)));
    assert_ne!(
        derived,
        bytes(SweepRunner::new().run(&jobs)),
        "the base seed changed nothing"
    );
}
