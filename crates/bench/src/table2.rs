//! Table II: simulator system parameters (configuration dump).

use tpharness::report::Table;
use tpsim::SystemConfig;
use tptrace::Scale;

pub fn render(_: Scale) -> String {
    let mut out = String::new();
    let mut t = Table::new(
        "Table II: Simulator System Parameters",
        &["component", "parameters"],
    );
    let c = SystemConfig::single_core();
    t.row(&[
        "Core".into(),
        format!(
            "4GHz, {}-wide OoO, {}-entry ROB (analytic model)",
            c.core.width, c.core.rob
        ),
    ]);
    for (name, p) in [("L1D", c.l1d), ("L2", c.l2), ("LLC (per core)", c.llc)] {
        t.row(&[
            name.into(),
            format!(
                "{}KB, {}-way, {}-cycle latency, {} MSHRs, {} R/W port(s)",
                p.capacity >> 10,
                p.ways,
                p.latency,
                p.mshrs,
                p.ports
            ),
        ]);
    }
    t.row(&[
        "L1D prefetcher".into(),
        "PC-localized stride, degree 3".into(),
    ]);
    for cores in [1usize, 2, 4, 8] {
        let d = SystemConfig::with_cores(cores).dram;
        t.row(&[
            format!("DRAM ({cores}C)"),
            format!(
                "{} channel(s) x {} rank(s) x {} banks, tCAS/tRCD/tRP {} cyc, burst {} cyc",
                d.channels, d.ranks, d.banks_per_rank, d.t_cas, d.burst
            ),
        ]);
    }
    out += &t.render();
    out
}
