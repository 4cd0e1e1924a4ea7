//! Event logging for timeline reconstruction (Figures 2–5): the
//! [`EventLog`] probe records every [`Probe::event`] of a run.

use std::fmt;

use mcl_isa::ClusterId;

use crate::obs::Probe;

/// What happened to an instruction copy at some cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The instruction was distributed (renamed and inserted into the
    /// dispatch queue of the given cluster).
    Distributed,
    /// The master copy was issued.
    MasterIssued,
    /// The slave copy was issued.
    SlaveIssued,
    /// The master copy finished executing ("done" in the figures).
    ExecDone,
    /// A forwarded operand was written into the operand transfer buffer
    /// of the given cluster.
    OperandWritten,
    /// A result was written into the result transfer buffer of the given
    /// cluster.
    ResultWritten,
    /// A destination register was written in the given cluster.
    RegWritten,
    /// The slave copy was suspended (scenario five).
    SlaveSuspended,
    /// The suspended slave copy was awakened (scenario five).
    SlaveWoke,
    /// The instruction retired.
    Retired,
    /// A conditional branch resolved as mispredicted.
    Mispredicted,
    /// The instruction was squashed by an instruction-replay exception.
    ReplaySquashed,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EventKind::Distributed => "distributed",
            EventKind::MasterIssued => "master issued",
            EventKind::SlaveIssued => "slave issued",
            EventKind::ExecDone => "done",
            EventKind::OperandWritten => "operand -> transfer buffer",
            EventKind::ResultWritten => "result -> transfer buffer",
            EventKind::RegWritten => "register written",
            EventKind::SlaveSuspended => "slave suspended",
            EventKind::SlaveWoke => "slave wakes",
            EventKind::Retired => "retired",
            EventKind::Mispredicted => "mispredicted",
            EventKind::ReplaySquashed => "squashed (replay)",
        };
        f.write_str(s)
    }
}

/// One logged event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Cycle at which the event occurred.
    pub cycle: u64,
    /// Dynamic sequence number of the instruction.
    pub seq: u64,
    /// The cluster involved, when meaningful.
    pub cluster: Option<ClusterId>,
    /// What happened.
    pub kind: EventKind,
}

/// An append-only event log; attach it to a run as a probe.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// Appends an event.
    pub fn push(&mut self, cycle: u64, seq: u64, cluster: Option<ClusterId>, kind: EventKind) {
        self.events.push(Event { cycle, seq, cluster, kind });
    }

    /// All events in insertion order (within a cycle, stage order).
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events concerning one instruction.
    pub fn for_seq(&self, seq: u64) -> impl Iterator<Item = &Event> {
        self.events.iter().filter(move |e| e.seq == seq)
    }

    /// Renders a per-instruction timeline like the paper's figures,
    /// ordered by cycle (stable within a cycle).
    #[must_use]
    pub fn timeline(&self, seq: u64) -> String {
        use std::fmt::Write as _;
        let mut events: Vec<&Event> = self.for_seq(seq).collect();
        events.sort_by_key(|e| e.cycle);
        let mut out = String::new();
        for e in events {
            let cluster = e.cluster.map_or_else(String::new, |c| format!(" [{c}]"));
            let _ = writeln!(out, "  cycle {:>4}{cluster}: {}", e.cycle, e.kind);
        }
        out
    }
}

impl Probe for EventLog {
    fn event(&mut self, cycle: u64, seq: u64, cluster: Option<ClusterId>, kind: EventKind) {
        self.push(cycle, seq, cluster, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_and_filter() {
        let mut log = EventLog::new();
        log.push(1, 0, Some(ClusterId::C0), EventKind::Distributed);
        log.push(1, 1, Some(ClusterId::C1), EventKind::Distributed);
        log.push(3, 0, Some(ClusterId::C0), EventKind::MasterIssued);
        assert_eq!(log.events().len(), 3);
        assert_eq!(log.for_seq(0).count(), 2);
        let tl = log.timeline(0);
        assert!(tl.contains("master issued"));
        assert!(tl.contains("[C0]"));
    }
}
