//! Differential suite for batched replay (tpcheck).
//!
//! The engine's default path pulls fixed-size blocks straight from the
//! packed SoA trace arrays and hoists every per-access branch of the
//! serial loop to a per-block decision (`Engine::run_batched`). The
//! refactor's contract is absolute: **any batch size produces reports
//! byte-identical to the serial reference loop** (`batch_size(1)`), for
//! any config, workload mix, core count, or warmup fraction — batching
//! is a pure speed knob with no observable semantics.
//!
//! Three angles pin it:
//!
//! 1. **Fuzzed differential runs** — random (config × mix × core-count
//!    × batch-size) experiments, with the batch drawn from the edge
//!    cases that stress the block-cap clamps: tiny odd blocks (7), the
//!    default (256), and a single block covering a whole trace pass
//!    (`len + 1`). Serial and batched fingerprints (every counter, plus
//!    the conservation-law audit) must match exactly.
//! 2. **Pinned batch ladder** — one fixed prefetching config replayed
//!    at every edge batch size; all reports equal the serial one.
//! 3. **Cancellation under batching** — a cancelled token still aborts
//!    the run, an uncancelled token still changes nothing, and the
//!    token-poll cadence stays at epoch granularity: a block may defer
//!    a poll past a `CANCEL_EPOCH` multiple by at most one block
//!    length, never collapse polling.

use streamline_repro::prelude::*;
use streamline_repro::tpsim::{CancelToken, CANCEL_EPOCH};
use streamline_repro::tptrace::Mix;
use tpcheck::{check, ensure, Gen};

/// A random experiment at test scale, biased toward configurations that
/// exercise every hoisted branch: the temporal prefetcher is always on
/// (metadata traffic, feedback, LLC sampling) and warmup 0.0 is in the
/// pool (the zero-warmup fast path skips the warmup clamp entirely).
fn random_experiment(g: &mut Gen) -> Experiment {
    let temporal = [
        TemporalKind::Triage,
        TemporalKind::Triangel,
        TemporalKind::TriangelIdeal,
        TemporalKind::Streamline,
    ][g.usize_in(0..4)];
    let mut exp = Experiment::new(Scale::Test)
        .l1(L1Kind::ALL[g.usize_in(0..L1Kind::ALL.len())])
        .l2(L2Kind::ALL[g.usize_in(0..L2Kind::ALL.len())])
        .temporal(temporal);
    exp.warmup = [0.0, 0.2, 0.5][g.usize_in(0..3)];
    exp
}

/// A random 1–2 core mix from the memory-intensive pool (the LLC
/// slicing requires a power-of-two core count).
fn random_mix(g: &mut Gen) -> Mix {
    let pool = workloads::memory_intensive();
    Mix {
        index: 0,
        workloads: (0..g.usize_in(1..3))
            .map(|_| pool[g.usize_in(0..pool.len())].clone())
            .collect(),
    }
}

/// Every simulated number a batching bug could move, as one comparable
/// string: all per-core counters, the shared LLC and DRAM stats, and
/// the conservation-law audit verdict.
fn fingerprint(r: &SimReport) -> String {
    format!(
        "{:?} {:?} {:?} audit(passed={}, checks={}, violations={})",
        r.cores,
        r.llc,
        r.dram,
        r.audit.passed(),
        r.audit.checks,
        r.audit.violations.len()
    )
}

/// The longest trace in the mix, so `len + 1` covers any core's full
/// pass in a single block (the cap clamps must bound it, not the batch).
fn max_trace_len(mix: &Mix) -> usize {
    mix.workloads
        .iter()
        .map(|w| w.generate_shared(Scale::Test).len())
        .max()
        .unwrap_or(1)
}

/// The engine for `mix` under `exp` at an explicit replay block size
/// (1 selects the serial reference loop).
fn at_batch(mix: &Mix, exp: &Experiment, batch: usize) -> Engine {
    exp.engine(&mix.workloads).batch_size(batch)
}

/// Angle 1: fuzzed serial-vs-batched differential runs.
#[test]
fn batched_replay_is_byte_identical_to_serial() {
    check("batched == serial across fuzzed experiments", 14, |g| {
        let exp = random_experiment(g);
        let mix = random_mix(g);
        let batch = match g.usize_in(0..3) {
            0 => 7,
            1 => 256,
            _ => max_trace_len(&mix) + 1,
        };
        let serial = fingerprint(&at_batch(&mix, &exp, 1).run());
        let batched = fingerprint(&at_batch(&mix, &exp, batch).run());
        ensure!(
            serial == batched,
            "batch={batch} diverged from serial for {:?} under {}",
            mix.workloads.iter().map(|w| w.name).collect::<Vec<_>>(),
            exp.fingerprint()
        );
        Ok(())
    });
}

/// Angle 2: one fixed full-stack config replayed across the whole edge
/// batch ladder, including the default entry point (`run_mix`, which
/// batches at `DEFAULT_BATCH`).
#[test]
fn batch_ladder_matches_serial_on_full_stack() {
    let mix = Mix {
        index: 0,
        workloads: vec![
            workloads::by_name("spec06.mcf").expect("registry workload"),
            workloads::by_name("gap.bfs").expect("registry workload"),
        ],
    };
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .l2(L2Kind::Ipcp)
        .temporal(TemporalKind::Streamline);
    let serial = fingerprint(&at_batch(&mix, &exp, 1).run());
    for batch in [2, 7, 256, max_trace_len(&mix) + 1] {
        let batched = fingerprint(&at_batch(&mix, &exp, batch).run());
        assert_eq!(serial, batched, "batch {batch} diverged from serial");
    }
    let default_path = fingerprint(&run_mix(&mix, &exp));
    assert_eq!(serial, default_path, "run_mix default batch diverged");
}

/// Angle 3a: cancellation still works under batching — a pre-cancelled
/// token aborts before any work, and an uncancelled token's run is
/// byte-identical to the plain one (the poll touches no simulated
/// state).
#[test]
fn cancellation_semantics_survive_batching() {
    let mix = Mix {
        index: 0,
        workloads: vec![workloads::by_name("gap.bfs").expect("registry workload")],
    };
    let exp = Experiment::new(Scale::Test)
        .l1(L1Kind::Stride)
        .temporal(TemporalKind::Streamline);

    let pre_cancelled = CancelToken::new();
    pre_cancelled.cancel();
    assert!(
        at_batch(&mix, &exp, 256)
            .run_with_cancel(&pre_cancelled)
            .is_none(),
        "a pre-cancelled token must abort the batched run"
    );

    let live = CancelToken::new();
    let via_token = at_batch(&mix, &exp, 256)
        .run_with_cancel(&live)
        .expect("uncancelled run completes");
    let plain = at_batch(&mix, &exp, 256).run();
    assert_eq!(
        fingerprint(&via_token),
        fingerprint(&plain),
        "an uncancelled token must not perturb the batched run"
    );
    assert!(live.polls() > 0, "the engine never polled the token");
}

/// Angle 3b: the poll cadence bound. Serial polls once per
/// `CANCEL_EPOCH` steps; batching may stretch each interval by at most
/// one block (`batch - 1` extra accesses) because polls happen at the
/// first block boundary at or after each epoch multiple. Both runs
/// process identical work (byte-identical reports), so the serial poll
/// count brackets the total step count and bounds what the batched
/// count may legally be.
#[test]
fn batched_polling_stays_at_epoch_granularity() {
    let mix = Mix {
        index: 0,
        workloads: vec![
            workloads::by_name("spec06.mcf").expect("registry workload"),
            workloads::by_name("spec06.libquantum").expect("registry workload"),
        ],
    };
    let exp = Experiment::new(Scale::Test).l1(L1Kind::Stride);
    for batch in [7u64, 256, 1024] {
        let serial_token = CancelToken::new();
        let serial = at_batch(&mix, &exp, 1)
            .run_with_cancel(&serial_token)
            .expect("uncancelled");
        let batched_token = CancelToken::new();
        let batched = at_batch(&mix, &exp, batch as usize)
            .run_with_cancel(&batched_token)
            .expect("uncancelled");
        assert_eq!(fingerprint(&serial), fingerprint(&batched));

        let ps = serial_token.polls();
        let pb = batched_token.polls();
        // Serial polls at every CANCEL_EPOCH multiple, so total steps
        // S <= ps * CANCEL_EPOCH; the batched path's poll intervals are
        // each <= CANCEL_EPOCH + batch - 1 accesses, giving the floor.
        assert!(ps > 2, "run too short to exercise the bound: {ps} polls");
        let floor = (ps - 1) * CANCEL_EPOCH / (CANCEL_EPOCH + batch - 1);
        assert!(
            pb >= floor,
            "batch {batch}: {pb} polls < floor {floor} (serial {ps}) — \
             batching stretched the poll interval past one block"
        );
        // And batching never polls *more* often than the epoch cadence.
        assert!(pb <= ps + 1, "batch {batch}: {pb} polls > serial {ps} + 1");
    }
}
