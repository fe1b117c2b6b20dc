//! Timestamp-based DRAM model: channels, ranks, banks, and open-row
//! tracking with bank/bus queueing by next-free times.
//!
//! The model is intentionally cycle-approximate: requests are served in
//! arrival order (the engine processes accesses in issue order), each
//! bank tracks its open row and next-free time, and each channel tracks
//! data-bus occupancy. This captures the two effects the paper's
//! bandwidth experiments depend on — row locality and channel-bandwidth
//! saturation — without a full command scheduler.

use crate::config::DramParams;
use crate::stats::DramStats;
use tptrace::record::Line;

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Next time the bank can accept *any* request.
    ready: u64,
    /// Next time the bank can accept a **demand** request. Demand-first
    /// scheduling (FR-FCFS with priorities) lets demands preempt queued
    /// prefetches; an in-service prefetch still blocks for a fraction of
    /// its access.
    ready_demand: u64,
}

#[derive(Clone, Debug)]
struct Channel {
    banks: Vec<Bank>,
    bus_free: u64,
}

/// The DRAM subsystem.
#[derive(Clone, Debug)]
pub struct Dram {
    params: DramParams,
    channels: Vec<Channel>,
    stats: DramStats,
}

impl Dram {
    /// Builds a DRAM model from parameters.
    pub fn new(params: DramParams) -> Self {
        let banks = params.ranks * params.banks_per_rank;
        Dram {
            channels: vec![
                Channel {
                    banks: vec![Bank::default(); banks],
                    bus_free: 0,
                };
                params.channels
            ],
            params,
            stats: DramStats::default(),
        }
    }

    /// The parameters this model was built with.
    pub fn params(&self) -> &DramParams {
        &self.params
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Resets statistics (used at warmup end). State is preserved.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }

    fn map(&self, line: Line) -> (usize, usize, u64) {
        let l = line.0;
        let ch = (l % self.channels.len() as u64) as usize;
        let banks = self.channels[ch].banks.len() as u64;
        let within = l / self.channels.len() as u64;
        let bank = (within % banks) as usize;
        let row = within / banks / self.params.lines_per_row;
        (ch, bank, row)
    }

    /// Services a demand read for `line` arriving at time `t`; returns
    /// the completion time of the data transfer.
    pub fn read(&mut self, t: u64, line: Line) -> u64 {
        self.stats.reads += 1;
        self.access(t, self.map(line), true)
    }

    /// Services a **prefetch** read: scheduled behind all traffic, and
    /// only lightly delaying later demands (demand-first scheduling).
    /// When its bank would hold it back more than `max_backlog` cycles,
    /// the read is dropped instead: `None`, and nothing changes.
    pub fn read_prefetch(&mut self, t: u64, line: Line, max_backlog: u64) -> Option<u64> {
        let at @ (ch, bank, _) = self.map(line);
        if self.channels[ch].banks[bank].ready.saturating_sub(t) > max_backlog {
            return None;
        }
        self.stats.reads += 1;
        Some(self.access(t, at, false))
    }

    /// Services a writeback for `line` arriving at time `t`; returns the
    /// completion time. No requester waits on it: the controller queues
    /// writebacks and drains them in row-batched bursts, so a write
    /// charges data-bus occupancy (the bandwidth the paper's Fig. 10c
    /// sweeps depend on) but no per-write row activation against the
    /// demand stream — interleaving each eviction's write into the bank
    /// state would thrash every open row, which batching exists to
    /// avoid.
    pub fn write(&mut self, t: u64, line: Line) -> u64 {
        self.stats.writes += 1;
        let (ch, _, _) = self.map(line);
        let channel = &mut self.channels[ch];
        let transfer_start = t.max(channel.bus_free);
        let done = transfer_start + self.params.burst;
        channel.bus_free = done;
        done
    }

    fn access(&mut self, t: u64, (ch, bank_idx, row): (usize, usize, u64), demand: bool) -> u64 {
        let p = self.params;
        let channel = &mut self.channels[ch];
        let bank = &mut channel.banks[bank_idx];

        let start = t.max(if demand {
            bank.ready_demand
        } else {
            bank.ready
        });
        let array_latency = match bank.open_row {
            Some(open) if open == row => {
                self.stats.row_hits += 1;
                p.t_cas
            }
            Some(_) => p.t_rp + p.t_rcd + p.t_cas,
            None => p.t_rcd + p.t_cas,
        };
        bank.open_row = Some(row);
        let data_ready = start + array_latency;
        let transfer_start = data_ready.max(channel.bus_free);
        let done = transfer_start + p.burst;
        channel.bus_free = done;
        bank.ready = bank.ready.max(data_ready);
        if demand {
            bank.ready_demand = data_ready;
        } else {
            // A low-priority access occupies the bank, but a demand
            // arriving mid-service preempts after the current column
            // access — charge a quarter of the array latency.
            bank.ready_demand = bank.ready_demand.max(start + array_latency / 4);
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramParams::default())
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut d = dram();
        let l = Line(0);
        let first = d.read(0, l); // row open (empty bank): tRCD+tCAS+burst
        let second = d.read(first, l) - first; // row hit: tCAS+burst
        assert_eq!(second, d.params().t_cas + d.params().burst);
        assert!(first > second);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dram();
        let p = *d.params();
        let a = Line(0);
        // Same channel & bank, different row.
        let b =
            Line(p.channels as u64 * p.ranks as u64 * p.banks_per_rank as u64 * p.lines_per_row);
        let t1 = d.read(0, a);
        let t2 = d.read(t1, b);
        assert!(t2 - t1 >= p.t_rp + p.t_rcd + p.t_cas + p.burst);
    }

    #[test]
    fn channel_bus_serialises_transfers() {
        let mut d = dram();
        // Two concurrent reads on different banks of the same channel:
        // array access overlaps, bus transfers serialise.
        let a = Line(0);
        let b = Line(d.params().channels as u64); // next bank, same channel
        let ta = d.read(0, a);
        let tb = d.read(0, b);
        assert!(tb >= ta + d.params().burst || ta >= tb + d.params().burst);
    }

    #[test]
    fn channels_are_independent() {
        let mut d = Dram::new(DramParams {
            channels: 2,
            ..DramParams::default()
        });
        let a = Line(0); // channel 0
        let b = Line(1); // channel 1
        let ta = d.read(0, a);
        let tb = d.read(0, b);
        assert_eq!(ta, tb, "parallel channels should not interfere");
    }

    #[test]
    fn writes_count_and_occupy() {
        let mut d = dram();
        let done = d.write(0, Line(7));
        assert!(done > 0);
        assert_eq!(d.stats().writes, 1);
        d.reset_stats();
        assert_eq!(d.stats().total(), 0);
    }

    #[test]
    fn a_prefetch_behind_a_deep_backlog_is_dropped_untouched() {
        let mut d = dram();
        let done = d.read(0, Line(0));
        let backlog = done - d.params().burst;
        assert_eq!(d.read_prefetch(0, Line(0), backlog - 1), None);
        assert_eq!(d.stats().reads, 1, "a drop is not a read");
        let queued = d
            .read_prefetch(0, Line(0), backlog)
            .expect("within the backlog");
        assert!(queued > done);
        assert_eq!((d.stats().reads, d.stats().row_hits), (2, 1));
    }

    #[test]
    fn back_to_back_same_bank_queues() {
        let mut d = dram();
        let l = Line(0);
        let mut last = 0;
        // Arrivals come every cycle, faster than service.
        for t in 0..10 {
            let done = d.read(t, l);
            assert!(done > last);
            last = done;
        }
        // Sustained row hits: spacing should approach burst-limited rate.
        assert!(last >= 10 * d.params().burst);
    }
}
