//! Cycle-accurate checks of the five dual-execution scenarios against
//! the timing rules of Section 2.1 (the paper's Figures 2–5).

use multicluster::core::{EventKind, EventLog, Processor, ProcessorConfig};
use multicluster::trace::vm::trace_program_packed;
use multicluster::workloads::scenarios::{self, Scenario};

fn run(s: &Scenario) -> (EventLog, [u64; 5]) {
    let (trace, _) = trace_program_packed(&s.program, 0).expect("trace");
    let mut events = EventLog::new();
    let result = Processor::new(ProcessorConfig::dual_cluster_8way())
        .run_packed_observed(&trace, &mut events)
        .expect("simulates");
    (events, result.stats.scenario)
}

fn cycle_of(events: &EventLog, seq: u64, kind: EventKind) -> Option<u64> {
    events.for_seq(seq).find(|e| e.kind == kind).map(|e| e.cycle)
}

#[test]
fn scenario1_single_distribution() {
    let s = scenarios::scenario1();
    let (events, counts) = run(&s);
    assert_eq!(counts[0], 3, "all three instructions single-distributed");
    assert!(cycle_of(&events, s.add_seq, EventKind::SlaveIssued).is_none());
}

#[test]
fn scenario2_master_issues_the_cycle_after_the_slave() {
    // "The dependence between the master copy and the slave copy is
    // removed when the slave copy is issued, thereby permitting the
    // master copy to be issued as soon as the next cycle."
    let s = scenarios::scenario2();
    let (events, counts) = run(&s);
    assert_eq!(counts[1], 1);
    let slave = cycle_of(&events, s.add_seq, EventKind::SlaveIssued).expect("slave issued");
    let master = cycle_of(&events, s.add_seq, EventKind::MasterIssued).expect("master issued");
    assert_eq!(master, slave + 1, "master follows the slave by one cycle");
    // The operand lands in the transfer buffer at the slave's writeback.
    let operand =
        cycle_of(&events, s.add_seq, EventKind::OperandWritten).expect("operand written");
    assert_eq!(operand, slave + 1);
    // No result forwarding in scenario two.
    assert!(cycle_of(&events, s.add_seq, EventKind::ResultWritten).is_none());
}

#[test]
fn scenario3_slave_issues_before_master_completion() {
    // "This dependence is removed two cycles before the master copy is
    // due to finish ... for simple one-cycle latency instructions like
    // the add, the slave copy can be issued as soon as one cycle after
    // the master copy is issued."
    let s = scenarios::scenario3();
    let (events, counts) = run(&s);
    assert_eq!(counts[2], 1);
    let master = cycle_of(&events, s.add_seq, EventKind::MasterIssued).expect("master");
    let slave = cycle_of(&events, s.add_seq, EventKind::SlaveIssued).expect("slave");
    assert_eq!(slave, master + 1, "one-cycle add: slave issues one cycle after master");
    // The slave writes the destination register the cycle after it
    // issues.
    let written = events
        .for_seq(s.add_seq)
        .filter(|e| e.kind == EventKind::RegWritten)
        .map(|e| e.cycle)
        .max()
        .expect("register written");
    assert_eq!(written, slave + 1);
}

#[test]
fn scenario4_both_clusters_write_the_global_destination() {
    let s = scenarios::scenario4();
    let (events, counts) = run(&s);
    assert_eq!(counts[3], 1);
    let writes: Vec<_> =
        events.for_seq(s.add_seq).filter(|e| e.kind == EventKind::RegWritten).collect();
    assert_eq!(writes.len(), 2, "one register write per cluster");
    let clusters: std::collections::HashSet<_> =
        writes.iter().filter_map(|e| e.cluster).collect();
    assert_eq!(clusters.len(), 2, "the writes land in different clusters");
}

#[test]
fn scenario5_slave_suspends_then_wakes() {
    let s = scenarios::scenario5();
    let (events, counts) = run(&s);
    assert_eq!(counts[4], 1);
    let slave = cycle_of(&events, s.add_seq, EventKind::SlaveIssued).expect("slave issues");
    let suspended =
        cycle_of(&events, s.add_seq, EventKind::SlaveSuspended).expect("slave suspends");
    let master = cycle_of(&events, s.add_seq, EventKind::MasterIssued).expect("master");
    let woke = cycle_of(&events, s.add_seq, EventKind::SlaveWoke).expect("slave wakes");
    assert!(slave < master, "slave forwards the operand before the master computes");
    assert_eq!(suspended, slave + 1);
    assert!(woke > master, "the wake follows the master's completion");
    // Both register copies get written, the master's first.
    let mut writes: Vec<u64> = events
        .for_seq(s.add_seq)
        .filter(|e| e.kind == EventKind::RegWritten)
        .map(|e| e.cycle)
        .collect();
    writes.sort_unstable();
    assert_eq!(writes.len(), 2);
    assert!(writes[0] <= writes[1]);
}

#[test]
fn every_scenario_retires_and_classifies_exactly_once() {
    for s in scenarios::all() {
        let (events, counts) = run(&s);
        assert!(
            cycle_of(&events, s.add_seq, EventKind::Retired).is_some(),
            "scenario {} add retired",
            s.number
        );
        assert!(
            counts[usize::from(s.number - 1)] >= 1,
            "scenario {} classified (counts: {counts:?})",
            s.number
        );
    }
}
