//! Pipeline diagrams: renders an [`EventLog`] as a per-instruction
//! Gantt chart in the style of the paper's Figures 2–5.
//!
//! Each row is one dynamic instruction; each column one cycle. Cell
//! letters mark the events of the multicluster execution protocol:
//!
//! ```text
//! D  distributed            S  slave issued        M  master issued
//! o  operand -> buffer      r  result -> buffer    w  register written
//! z  slave suspended        k  slave wakes         X  execution done
//! R  retired                !  mispredict          ~  squashed (replay)
//! ```
//!
//! When several events land on the same cycle the most informative one
//! wins (issue > buffer traffic > bookkeeping).

use std::collections::BTreeMap;

use crate::events::{Event, EventKind, EventLog};

/// Rendering options.
#[derive(Debug, Clone, Copy)]
pub struct PipeViewOptions {
    /// First dynamic instruction to show.
    pub first_seq: u64,
    /// Last dynamic instruction to show (inclusive).
    pub last_seq: u64,
    /// Maximum number of cycle columns (rows are clipped after this).
    pub max_cycles: usize,
}

impl Default for PipeViewOptions {
    fn default() -> PipeViewOptions {
        PipeViewOptions { first_seq: 0, last_seq: 31, max_cycles: 96 }
    }
}

fn glyph(kind: EventKind) -> (char, u8) {
    // (glyph, priority) — higher priority wins a shared cell.
    match kind {
        EventKind::MasterIssued => ('M', 9),
        EventKind::SlaveIssued => ('S', 8),
        EventKind::Retired => ('R', 7),
        EventKind::Mispredicted => ('!', 7),
        EventKind::ReplaySquashed => ('~', 7),
        EventKind::SlaveWoke => ('k', 6),
        EventKind::SlaveSuspended => ('z', 5),
        EventKind::OperandWritten => ('o', 4),
        EventKind::ResultWritten => ('r', 4),
        EventKind::ExecDone => ('X', 3),
        EventKind::RegWritten => ('w', 2),
        EventKind::Distributed => ('D', 1),
    }
}

/// Renders the diagram.
///
/// Cycles are rebased so the first visible event is column zero; the
/// header prints the true cycle of that column.
#[must_use]
pub fn render(log: &EventLog, options: PipeViewOptions) -> String {
    use std::fmt::Write as _;
    let events: Vec<&Event> = log
        .events()
        .iter()
        .filter(|e| (options.first_seq..=options.last_seq).contains(&e.seq))
        .collect();
    let Some(base_cycle) = events.iter().map(|e| e.cycle).min() else {
        return "(no events in range)\n".to_owned();
    };

    // seq -> cycle-offset -> (glyph, priority)
    let mut rows: BTreeMap<u64, BTreeMap<usize, (char, u8)>> = BTreeMap::new();
    for e in events {
        let offset = (e.cycle - base_cycle) as usize;
        if offset >= options.max_cycles {
            continue;
        }
        let (g, p) = glyph(e.kind);
        let cell = rows.entry(e.seq).or_default().entry(offset).or_insert((g, p));
        if p > cell.1 {
            *cell = (g, p);
        }
    }

    let width = rows
        .values()
        .filter_map(|cells| cells.keys().max())
        .max()
        .map_or(1, |m| m + 1);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "cycle {base_cycle} at column 0; D distribute, S/M slave/master issue, o/r buffer\nwrites, z/k suspend/wake, X done, w register write, R retire\n"
    );
    for (seq, cells) in &rows {
        let mut line = String::with_capacity(width);
        for col in 0..width {
            line.push(cells.get(&col).map_or('.', |&(g, _)| g));
        }
        let _ = writeln!(out, "#{seq:<4} {line}");
    }
    out
}

/// One in-flight instruction in a window snapshot (see
/// [`render_window`]): the live scheduling state the invariant checker
/// attaches to a violation report.
#[derive(Debug, Clone)]
pub struct WindowRow {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Execution scenario (1–5, Section 2.1).
    pub scenario: u8,
    /// Master cluster.
    pub master: u8,
    /// Slave cluster, if dual-distributed.
    pub slave: Option<u8>,
    /// Master issue cycle, if issued.
    pub master_issued: Option<u64>,
    /// Master completion cycle, if scheduled.
    pub master_done: Option<u64>,
    /// Slave issue cycle, if issued.
    pub slave_issued: Option<u64>,
    /// Slave register-write cycle, if scheduled.
    pub slave_write: Option<u64>,
    /// Holds an operand-transfer-buffer entry (master's cluster).
    pub otb_held: bool,
    /// Holds a result-transfer-buffer entry (slave's cluster).
    pub rtb_held: bool,
}

/// Renders an instruction-window snapshot, one line per in-flight
/// instruction, in the spirit of the Figure 2–5 views: what issued
/// when, what is still pending, and which transfer-buffer entries are
/// held. Used to make invariant-violation reports actionable.
#[must_use]
pub fn render_window(cycle: u64, base: u64, rows: &[WindowRow]) -> String {
    use std::fmt::Write as _;
    fn c(v: Option<u64>) -> String {
        v.map_or_else(|| "-".to_owned(), |t| t.to_string())
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "window at cycle {cycle}: base #{base}, {} in flight (issue/done cycles; + = buffer entry held)",
        rows.len()
    );
    for r in rows {
        let master = format!("M{}[i{},d{}]", r.master, c(r.master_issued), c(r.master_done));
        let slave = match r.slave {
            Some(s) => format!("S{}[i{},w{}]", s, c(r.slave_issued), c(r.slave_write)),
            None => "-".to_owned(),
        };
        let mut held = String::new();
        if r.otb_held {
            held.push_str(" +otb");
        }
        if r.rtb_held {
            held.push_str(" +rtb");
        }
        let _ = writeln!(
            out,
            "  #{:<6} s{} {:<20} {:<20}{held}",
            r.seq, r.scenario, master, slave
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Processor, ProcessorConfig};
    use mcl_isa::ArchReg;
    use mcl_trace::vm::trace_program_packed;
    use mcl_trace::ProgramBuilder;

    fn sample_log() -> EventLog {
        let mut b = ProgramBuilder::<ArchReg>::new("pv");
        b.lda(ArchReg::int(4), 1);
        b.lda(ArchReg::int(3), 2);
        b.addq(ArchReg::int(2), ArchReg::int(4), ArchReg::int(3));
        let (trace, _) = trace_program_packed(&b.finish().unwrap(), 0).unwrap();
        let mut log = EventLog::new();
        Processor::new(ProcessorConfig::dual_cluster_8way())
            .run_packed_observed(&trace, &mut log)
            .unwrap();
        log
    }

    #[test]
    fn renders_one_row_per_instruction() {
        let log = sample_log();
        let view = render(&log, PipeViewOptions::default());
        assert!(view.contains("#0   "));
        assert!(view.contains("#1   "));
        assert!(view.contains("#2   "));
    }

    #[test]
    fn dual_distributed_add_shows_slave_and_master() {
        let log = sample_log();
        let view = render(&log, PipeViewOptions::default());
        let add_row = view.lines().find(|l| l.starts_with("#2")).expect("row for the add");
        assert!(add_row.contains('S'), "slave issue: {add_row}");
        assert!(add_row.contains('M'), "master issue: {add_row}");
        assert!(add_row.contains('R'), "retire: {add_row}");
    }

    #[test]
    fn range_filtering_and_empty_ranges() {
        let log = sample_log();
        let view = render(
            &log,
            PipeViewOptions { first_seq: 2, last_seq: 2, ..PipeViewOptions::default() },
        );
        assert!(view.contains("#2"));
        assert!(!view.contains("#0 "));
        let empty = render(
            &log,
            PipeViewOptions { first_seq: 100, last_seq: 200, ..PipeViewOptions::default() },
        );
        assert!(empty.contains("no events"));
    }

    #[test]
    fn window_snapshot_lists_every_row() {
        let rows = vec![
            WindowRow {
                seq: 12,
                scenario: 2,
                master: 0,
                slave: Some(1),
                master_issued: None,
                master_done: None,
                slave_issued: Some(90),
                slave_write: None,
                otb_held: true,
                rtb_held: false,
            },
            WindowRow {
                seq: 13,
                scenario: 1,
                master: 1,
                slave: None,
                master_issued: Some(91),
                master_done: Some(93),
                slave_issued: None,
                slave_write: None,
                otb_held: false,
                rtb_held: false,
            },
        ];
        let view = render_window(95, 12, &rows);
        assert!(view.contains("cycle 95"));
        assert!(view.contains("base #12"));
        assert!(view.contains("#12"));
        assert!(view.contains("+otb"));
        assert!(view.contains("M1[i91,d93]"));
    }

    #[test]
    fn clipping_respects_max_cycles() {
        let log = sample_log();
        let view = render(
            &log,
            PipeViewOptions { max_cycles: 4, ..PipeViewOptions::default() },
        );
        for line in view.lines().filter(|l| l.starts_with('#')) {
            let cells = line.split_whitespace().nth(1).unwrap_or("");
            assert!(cells.len() <= 4, "{line}");
        }
    }
}
