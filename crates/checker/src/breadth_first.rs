//! The breadth-first checking strategy (paper §3.3).
//!
//! Learned clauses are rebuilt in the order the solver generated them, so
//! every resolve source is already available when it is needed. A first
//! pass over the trace counts how many times each learned clause is used
//! as a resolve source; during the resolution pass a clause is **freed as
//! soon as its use count reaches zero** (unless it is pinned for the
//! final derivation). The checker therefore never holds more clauses than
//! the solver itself did — the guarantee that lets it finish instances
//! where the depth-first strategy runs out of memory.
//!
//! As a side effect, the breadth-first strategy verifies *every* learned
//! clause, not just those on the proof path.
//!
//! Pass 1 ([`count_uses`]) counts uses into a table indexed by
//! each clause's dense id ([`crate::ids`]), so pass 2's bookkeeping per
//! resolve source is one indexed load.

use crate::api::CheckConfig;
use crate::cache::NormalizedClauses;
use crate::cancel::CancelFlag;
use crate::chain::ChainStep;
use crate::depth_first::final_phase_roots;
use crate::error::CheckError;
use crate::memory::{MemoryMeter, LEVEL_ZERO_RECORD_BYTES, USE_COUNT_BYTES};
use crate::model::{finish_visit, park_check_error, pass1, Pass1, Record};
use crate::outcome::{CheckOutcome, Strategy};
use crate::scratch::CheckScratch;
use rescheck_cnf::Cnf;
use rescheck_obs::{Observer, Phase};
use rescheck_trace::{EventRef, TraceSource};
use std::time::Instant;

/// The use count of a clause the final derivation reads: it is never
/// freed.
pub(crate) const PINNED: u32 = u32::MAX;

/// Pass 1: the shared validation, each learned clause's use count as a
/// resolve source, and [`PINNED`] for what the final derivation reads —
/// the level-0 antecedents and the start clause.
///
/// Only the first final-conflict record is pinned: the derivation only
/// ever starts from it, and pinning extra ones kept dead clauses
/// resident, defeating the bounded-memory guarantee this strategy exists
/// for.
fn count_uses<S: TraceSource + ?Sized>(
    trace: &S,
    num_original: usize,
    cancel: &CancelFlag,
) -> Result<(Pass1, Vec<u32>), CheckError> {
    let mut use_counts: Vec<u32> = Vec::new();
    let pass1 = pass1(trace, num_original, cancel, |record| {
        if let Record::Learned { ids, sources, .. } = record {
            use_counts.push(0);
            // A source defined later is a forward reference, which pass 2
            // rejects before its count could matter.
            for &s in sources {
                if let Some(j) = ids.index(s) {
                    use_counts[j] = use_counts[j].saturating_add(1);
                }
            }
        }
        Ok(())
    })?;
    for root in final_phase_roots(&pass1.level_zero, pass1.start_id()?) {
        if let Some(j) = pass1.ids.index(root) {
            use_counts[j] = PINNED;
        }
    }
    Ok((pass1, use_counts))
}

/// `bf`: rebuilds every learned clause in trace order, freeing each at
/// its last use.
pub(crate) fn run<S: TraceSource + ?Sized>(
    cnf: &Cnf,
    table: &NormalizedClauses,
    trace: &S,
    config: &CheckConfig,
    scratch: &mut CheckScratch,
    obs: &mut dyn Observer,
) -> Result<CheckOutcome, CheckError> {
    let started = Instant::now();
    let mut meter = MemoryMeter::new(config.memory_limit);

    let pass1_phase = Phase::start("check:pass1", obs);
    let (pass1, mut use_counts) = count_uses(trace, cnf.num_clauses(), &config.cancel)?;
    // Accounting for the bookkeeping tables the strategy keeps resident.
    meter.alloc(
        use_counts.len() as u64 * USE_COUNT_BYTES
            + pass1.level_zero.len() as u64 * LEVEL_ZERO_RECORD_BYTES
            + pass1.ids.map_bytes(),
    )?;
    pass1_phase.finish(obs);

    let resolve_phase = Phase::start("check:resolve", obs);
    let ids = &pass1.ids;
    let mut chain = ChainStep::new(cnf, table, ids, meter, config, scratch, false, obs);
    let mut parked = None;
    let result = trace.visit_events(&mut |event| {
        let EventRef::Learned { id, sources } = event else {
            return Ok(());
        };
        rebuild(&mut chain, id, sources, &mut use_counts)
            .map_err(|e| match e {
                // A defined source that is not rebuilt yet comes later in
                // the trace.
                CheckError::UnknownClause { id: source, .. } if ids.index(source).is_some() => {
                    CheckError::ForwardReference { id, source }
                }
                e => e,
            })
            .map_err(|e| park_check_error(&mut parked, e))
    });
    finish_visit(parked, result)?;
    resolve_phase.finish(&mut *chain.obs);

    chain.final_phase(pass1.start_id()?, &pass1.level_zero, |_, _| Ok(()))?;
    Ok(chain.finish(
        Strategy::BreadthFirst,
        ids.len() as u64,
        use_counts.len() as u64,
        started,
        trace.encoded_size(),
    ))
}

/// Rebuilds learned clause `id` under the use-count freeing policy
/// breadth-first and hybrid share: each learned source is freed at its
/// last counted use unless [`PINNED`], and the resolvent is stored only
/// if something will read it. `use_counts` is indexed by dense id.
pub(crate) fn rebuild(
    chain: &mut ChainStep<'_>,
    id: u64,
    sources: &[u64],
    use_counts: &mut [u32],
) -> Result<(), CheckError> {
    chain.resolve(id, sources)?;
    chain.count_built(sources.len())?;
    // Release sources whose last use this was — before storing the
    // resolvent, so it can reuse a just-freed arena extent.
    let ids = chain.ids();
    for &s in sources {
        let Some(j) = ids.index(s) else { continue };
        match use_counts[j] {
            // A use pass 1 did not count: the trace changed under us.
            PINNED | 0 => {}
            1 => {
                use_counts[j] = 0;
                chain.free(j);
            }
            count => use_counts[j] = count - 1,
        }
    }
    // Store the new clause unless it is already dead on arrival (the
    // clause-length histogram samples only stored resolvents).
    if ids.index(id).is_some_and(|own| use_counts[own] != 0) {
        chain.store(id)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::clause_bytes;
    use rescheck_cnf::Lit;
    use rescheck_obs::NullObserver;
    use rescheck_trace::{MemorySink, TraceSink};

    fn run(
        cnf: &Cnf,
        trace: &MemorySink,
        config: &CheckConfig,
        obs: &mut dyn Observer,
    ) -> Result<CheckOutcome, CheckError> {
        let table = NormalizedClauses::new(cnf);
        super::run(cnf, &table, trace, config, &mut CheckScratch::new(), obs)
    }

    #[test]
    fn accepts_learned_clause_proof_and_builds_everything() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 1]).unwrap(); // (1)
        sink.learned(5, &[2, 3]).unwrap(); // (-1)
        sink.level_zero(Lit::from_dimacs(1), 4).unwrap();
        sink.final_conflict(5).unwrap();

        let outcome = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        assert!(outcome.core.is_none());
        assert_eq!(outcome.stats.clauses_built, 2);
        assert_eq!(outcome.stats.learned_in_trace, 2);
        assert!((outcome.stats.built_percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn builds_even_unneeded_clauses() {
        // Unlike depth-first, an invalid *irrelevant* learned clause is
        // still caught.
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]); // 0
        cnf.add_dimacs_clause(&[-1, 2]); // 1
        cnf.add_dimacs_clause(&[-2]); // 2
        cnf.add_dimacs_clause(&[3, 4]); // 3
        cnf.add_dimacs_clause(&[5, 6]); // 4 — shares nothing with 3
        let mut sink = MemorySink::new();
        sink.learned(5, &[3, 4]).unwrap(); // invalid resolution
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.level_zero(Lit::from_dimacs(2), 1).unwrap();
        sink.final_conflict(2).unwrap();

        let err = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(
            err,
            CheckError::NotResolvable {
                target: Some(5),
                ..
            }
        ));
    }

    #[test]
    fn forward_reference_is_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut sink = MemorySink::new();
        // #4 uses #5 before it is defined.
        sink.learned(4, &[5, 0]).unwrap();
        sink.learned(5, &[2, 3]).unwrap();
        sink.final_conflict(4).unwrap();
        let err = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(
            err,
            CheckError::ForwardReference { id: 4, source: 5 }
        ));
    }

    #[test]
    fn unknown_source_is_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let mut sink = MemorySink::new();
        sink.learned(1, &[0, 42]).unwrap();
        sink.final_conflict(1).unwrap();
        let err = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(err, CheckError::UnknownClause { id: 42, .. }));
    }

    #[test]
    fn peak_memory_reflects_freeing() {
        // A long chain where each learned clause is used exactly once:
        // breadth-first should hold O(1) clauses, depth-first holds all.
        let mut cnf = Cnf::new();
        let n = 64i64;
        cnf.add_dimacs_clause(&[1]); // 0: (x1)
        for i in 1..n {
            cnf.add_dimacs_clause(&[-i, i + 1]); // i: xi → xi+1
        }
        cnf.add_dimacs_clause(&[-n]); // n: (¬xn)
        let mut sink = MemorySink::new();
        // Learned chain: #n+1 = r(0, 1) = (x2), #n+2 = r(#n+1, 2) = (x3)…
        let mut prev = 0u64;
        for i in 1..n {
            let next_id = (n + i) as u64;
            sink.learned(next_id, &[prev, i as u64]).unwrap();
            prev = next_id;
        }
        // prev is now (xn); level 0: xn by prev; final conflict (¬xn).
        sink.level_zero(Lit::from_dimacs(n), prev).unwrap();
        sink.final_conflict(n as u64).unwrap();

        let bf = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        let df = crate::api::check_depth_first(&cnf, &sink, &CheckConfig::default()).unwrap();
        assert!(
            bf.stats.peak_memory_bytes < df.stats.peak_memory_bytes,
            "bf {} vs df {}",
            bf.stats.peak_memory_bytes,
            df.stats.peak_memory_bytes
        );
        assert_eq!(bf.stats.clauses_built, (n - 1) as u64);
    }

    #[test]
    fn extra_final_conflicts_do_not_inflate_peak_memory() {
        // Regression for the pinning bug: every FinalConflict id used to
        // be pinned forever even though the derivation only starts from
        // the first one, so extra final conflicts kept dead clauses
        // resident and defeated the bounded-memory guarantee.
        let mut cnf = Cnf::new();
        let n = 32i64;
        cnf.add_dimacs_clause(&[1]);
        for i in 1..n {
            cnf.add_dimacs_clause(&[-i, i + 1]);
        }
        cnf.add_dimacs_clause(&[-n]);
        let build = |extra_finals: bool| {
            let mut sink = MemorySink::new();
            let mut prev = 0u64;
            for i in 1..n {
                let next_id = (n + i) as u64;
                sink.learned(next_id, &[prev, i as u64]).unwrap();
                // Redundant extra final-conflict records naming mid-chain
                // learned clauses: they must not stay resident.
                if extra_finals && i > 1 {
                    sink.final_conflict(next_id - 1).unwrap();
                }
                prev = next_id;
            }
            sink.level_zero(Lit::from_dimacs(n), prev).unwrap();
            sink
        };
        // The clean trace and the one with extra final conflicts must now
        // report the same clause residency; the first final conflict must
        // still drive the derivation.
        let mut clean = build(false);
        clean.final_conflict(n as u64).unwrap();
        let mut noisy = build(true);
        let mut noisy_events = noisy.into_events();
        // Put the real final conflict *first* so the derivation is
        // unchanged; the extra records come later.
        let insert_at = noisy_events
            .iter()
            .position(|e| matches!(e, rescheck_trace::TraceEvent::FinalConflict { .. }))
            .unwrap();
        noisy_events.insert(
            insert_at,
            rescheck_trace::TraceEvent::FinalConflict { id: n as u64 },
        );
        noisy = noisy_events.into();

        let clean_out = run(&cnf, &clean, &CheckConfig::default(), &mut NullObserver).unwrap();
        let noisy_out = run(&cnf, &noisy, &CheckConfig::default(), &mut NullObserver).unwrap();
        assert_eq!(
            clean_out.stats.peak_memory_bytes, noisy_out.stats.peak_memory_bytes,
            "extra final conflicts must not pin dead clauses"
        );
    }

    #[test]
    fn original_cache_is_charged_to_the_meter() {
        // With many distinct original clauses in play, the accounted peak
        // must include the cached normalized originals.
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1, 2]);
        cnf.add_dimacs_clause(&[1, -2]);
        cnf.add_dimacs_clause(&[-1, 2]);
        cnf.add_dimacs_clause(&[-1, -2]);
        let mut sink = MemorySink::new();
        sink.learned(4, &[0, 1]).unwrap();
        sink.learned(5, &[2, 3]).unwrap();
        sink.level_zero(Lit::from_dimacs(1), 4).unwrap();
        sink.final_conflict(5).unwrap();

        let outcome = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap();
        // Tables: 6 use-count entries would be at most 6; the four cached
        // originals alone cost 4 * clause_bytes(2) = 128 bytes, far above
        // the bookkeeping noise — the old accounting reported none of it.
        let cached_originals = 4 * clause_bytes(2);
        assert!(
            outcome.stats.peak_memory_bytes >= cached_originals,
            "peak {} must include {} bytes of cached originals",
            outcome.stats.peak_memory_bytes,
            cached_originals
        );
    }

    #[test]
    fn cancellation_stops_the_check() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1]);
        let mut sink = MemorySink::new();
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.final_conflict(1).unwrap();
        let config = CheckConfig {
            cancel: CancelFlag::armed(),
            ..CheckConfig::default()
        };
        config.cancel.cancel();
        // The trace is tiny so stride points are never reached — the
        // check succeeds. A longer trace hits the stride and stops.
        let mut big = MemorySink::new();
        let mut cnf2 = Cnf::new();
        let n = 4096i64;
        cnf2.add_dimacs_clause(&[1]);
        for i in 1..n {
            cnf2.add_dimacs_clause(&[-i, i + 1]);
        }
        cnf2.add_dimacs_clause(&[-n]);
        let mut prev = 0u64;
        for i in 1..n {
            let next_id = (n + i) as u64;
            big.learned(next_id, &[prev, i as u64]).unwrap();
            prev = next_id;
        }
        big.level_zero(Lit::from_dimacs(n), prev).unwrap();
        big.final_conflict(n as u64).unwrap();
        let err = run(&cnf2, &big, &config, &mut NullObserver).unwrap_err();
        assert!(matches!(err, CheckError::Cancelled));
    }

    #[test]
    fn missing_final_conflict_is_rejected() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        let sink = MemorySink::new();
        let err = run(&cnf, &sink, &CheckConfig::default(), &mut NullObserver).unwrap_err();
        assert!(matches!(err, CheckError::NoFinalConflict));
    }

    #[test]
    fn memory_limit_applies() {
        let mut cnf = Cnf::new();
        cnf.add_dimacs_clause(&[1]);
        cnf.add_dimacs_clause(&[-1]);
        let mut sink = MemorySink::new();
        sink.level_zero(Lit::from_dimacs(1), 0).unwrap();
        sink.final_conflict(1).unwrap();
        let config = CheckConfig {
            memory_limit: Some(1),
            ..CheckConfig::default()
        };
        let err = run(&cnf, &sink, &config, &mut NullObserver).unwrap_err();
        assert!(matches!(err, CheckError::MemoryLimitExceeded { .. }));
    }
}
