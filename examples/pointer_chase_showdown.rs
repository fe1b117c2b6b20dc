//! Pointer-chase showdown: build a custom linked-structure workload with
//! the public trace API and watch the three temporal prefetchers race on
//! it — including what happens when the structure mutates mid-run.
//!
//! ```sh
//! cargo run --release --example pointer_chase_showdown
//! ```

use streamline_repro::prelude::*;
use tptrace::TraceBuilder;

/// Builds a pointer chase over `nodes` shuffled nodes, traversed
/// `epochs` times, relinking `churn` nodes between epochs.
fn chase(nodes: usize, epochs: usize, churn: usize) -> Trace {
    // Simple deterministic shuffle for node placement.
    let mut place: Vec<u64> = (0..nodes as u64).collect();
    let mut x = 0x5eed_u64;
    for i in (1..nodes).rev() {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        place.swap(i, (x >> 33) as usize % (i + 1));
    }
    let mut next: Vec<u32> = (0..nodes as u32).map(|i| (i + 1) % nodes as u32).collect();
    let addr = |n: u32| 0x4000_0000_0000u64 + place[n as usize] * 64;

    let mut b = TraceBuilder::new("custom_chase", Suite::Spec06);
    b.default_gap(4);
    for e in 0..epochs {
        let mut n = 0u32;
        for _ in 0..nodes {
            b.dep_load(0x1000, addr(n));
            n = next[n as usize];
        }
        if e + 1 < epochs {
            for k in 0..churn {
                let v = ((k * 2654435761 + e * 97) % nodes) as u32;
                next[v as usize] = next[next[v as usize] as usize];
            }
        }
    }
    b.finish()
}

fn main() {
    let nodes = 60_000;
    println!("pointer chase: {nodes} nodes, 5 epochs");
    for churn_pct in [0usize, 2, 10] {
        let trace = chase(nodes, 5, nodes * churn_pct / 100);
        println!("\n--- structure churn {churn_pct}% per epoch ---");
        let run = |temporal: Option<Box<dyn TemporalPrefetcher>>| {
            let mut plan = CorePlan::bare(trace.clone());
            if let Some(t) = temporal {
                plan = plan.with_temporal(t);
            }
            Engine::new(SystemConfig::single_core(), vec![plan]).run()
        };
        let base = run(None);
        let b_ipc = base.cores[0].ipc();
        println!("{:14} ipc {:.4}", "baseline", b_ipc);
        let contenders: Vec<(&str, Box<dyn TemporalPrefetcher>)> = vec![
            ("triage", Box::new(Triage::new())),
            ("triangel", Box::new(Triangel::new())),
            ("streamline", Box::new(Streamline::new())),
        ];
        for (name, pf) in contenders {
            let r = run(Some(pf));
            let c = &r.cores[0];
            println!(
                "{:14} ipc {:.4} ({:+.1}%)  cov {:.1}%  acc {:.1}%",
                name,
                c.ipc(),
                (c.ipc() / b_ipc - 1.0) * 100.0,
                c.temporal_coverage() * 100.0,
                c.temporal_accuracy() * 100.0,
            );
        }
    }
    println!("\nExpected: big wins when the chain is stable; churn erodes all three, Streamline degrades most gracefully (stream alignment repairs stale entries).");
}
