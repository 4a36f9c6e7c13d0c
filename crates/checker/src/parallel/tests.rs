//! Tests of pdag's threading plumbing, which lives in `executor`: the
//! job count, panic-to-error conversion, and a panicking worker.

use crate::api::CheckConfig;
use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::executor::{effective_jobs, join_or_internal};
use crate::FailureKind;
use rescheck_cnf::{Cnf, Lit};
use rescheck_obs::NullObserver;
use rescheck_trace::{MemorySink, TraceSink};
use std::thread;

/// An implication-chain instance whose proof uses each learned
/// clause exactly once.
fn chain(n: i64) -> (Cnf, MemorySink) {
    let mut cnf = Cnf::new();
    cnf.add_dimacs_clause(&[1]);
    for i in 1..n {
        cnf.add_dimacs_clause(&[-i, i + 1]);
    }
    cnf.add_dimacs_clause(&[-n]);
    let mut sink = MemorySink::new();
    let mut prev = 0u64;
    for i in 1..n {
        let next_id = (n + i) as u64;
        sink.learned(next_id, &[prev, i as u64]).unwrap();
        prev = next_id;
    }
    sink.level_zero(Lit::from_dimacs(n), prev).unwrap();
    sink.final_conflict(n as u64).unwrap();
    (cnf, sink)
}

#[test]
fn effective_jobs_resolution() {
    assert_eq!(effective_jobs(3), 3);
    assert!(effective_jobs(0) >= 1);
    assert!(effective_jobs(0) <= 8);
}

#[test]
fn join_or_internal_converts_panics() {
    let joined = thread::spawn(|| panic!("boom {}", 42)).join();
    match join_or_internal::<()>("test worker", joined).unwrap_err() {
        CheckError::WorkerPanic { what } => {
            assert!(what.contains("test worker"), "{what}");
            assert!(what.contains("boom 42"), "{what}");
        }
        other => panic!("unexpected error {other:?}"),
    }
    let ok = join_or_internal("test worker", thread::spawn(|| 7).join());
    assert_eq!(ok.unwrap(), 7);
}

#[test]
fn parallel_dag_reports_worker_panics_as_internal_errors() {
    // Corrupt a built DAG so one node lists *itself* as a learned
    // source: its slot cannot have published when the node resolves,
    // so the slot read panics inside the resolution closure — on the
    // inline single-worker path and inside a spawned worker alike.
    // The executor must catch the unwind and surface a structured
    // internal error (exit 5 at the CLI) instead of aborting.
    for workers in [1usize, 2, 4] {
        let (cnf, sink) = chain(64);
        let mut meter = crate::memory::MemoryMeter::unlimited();
        let (_, mut dag) =
            crate::dag::build(&cnf, &sink, &mut meter, &CancelFlag::default()).unwrap();
        let (victim, slot) = dag
            .nodes
            .iter()
            .enumerate()
            .find_map(|(i, n)| {
                (n.src_start..n.src_end)
                    .find(|&s| dag.srcs[s as usize] & crate::dag::ORIGINAL_TAG == 0)
                    .map(|s| (i as u32, s as usize))
            })
            .expect("chain nodes have learned sources");
        dag.srcs[slot] = victim;
        let err = match crate::executor::execute(
            &dag,
            workers,
            crate::memory::MemoryMeter::unlimited(),
            &CheckConfig::default(),
            &mut NullObserver,
        ) {
            Err(e) => e,
            Ok(_) => panic!("corrupted dag must fail ({workers} workers)"),
        };
        assert!(matches!(err, CheckError::WorkerPanic { .. }), "{err:?}");
        assert_eq!(err.kind(), FailureKind::Internal);
    }
}
