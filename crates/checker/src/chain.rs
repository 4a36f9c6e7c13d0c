//! The chain step every sequential engine shares.
//!
//! Rebuilding one learned clause is the same job in depth-first,
//! breadth-first and hybrid checking: seed the [`ResolutionKernel`] with
//! the first resolve source, fold in the rest, and store the resolvent in
//! the [`ClauseArena`], fetching original clauses through the accounted
//! [`OriginalCache`] along the way. [`ChainStep`] does that job on the
//! kernel, arena and cache of the caller's [`CheckScratch`], and also
//! runs the final empty-clause phase and reports the end-of-run gauges.
//! Each engine keeps only its pass 1, the order in which it rebuilds
//! clauses, and when it frees them.

use crate::api::CheckConfig;
use crate::arena::ClauseArena;
use crate::cache::OriginalCache;
use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::final_phase::{derive_empty_clause, ClauseProvider};
use crate::kernel::{KernelStats, ResolutionKernel};
use crate::memory::MemoryMeter;
use crate::model::LevelZeroMap;
use crate::outcome::{CheckOutcome, CheckStats, Strategy, UnsatCore};
use crate::resolve::normalize_literals;
use crate::scratch::{kernel_stats_since, CheckScratch};
use rescheck_cnf::{Cnf, Lit};
use rescheck_obs::{Event, Observer, Phase};
use std::sync::Arc;
use std::time::Instant;

/// Progress events are emitted once per this many built clauses; the
/// reporter applies its own (coarser) heartbeat threshold on top.
pub(crate) const PROGRESS_STRIDE: u64 = 1024;

/// One job's resolution state, borrowed from a [`CheckScratch`].
pub(crate) struct ChainStep<'a> {
    cnf: &'a Cnf,
    num_original: u64,
    kernel: &'a mut ResolutionKernel,
    /// Resident learned clauses.
    arena: &'a mut ClauseArena,
    /// Normalized original clauses, charged to the meter like every
    /// other resident clause.
    originals: &'a mut OriginalCache,
    /// Kernel counters at job start, for per-job delta gauges.
    kernel_base: KernelStats,
    /// Original clauses touched so far (the unsat core), for engines
    /// that report one.
    used_originals: Option<Vec<bool>>,
    pub(crate) meter: MemoryMeter,
    cancel: CancelFlag,
    pub(crate) obs: &'a mut dyn Observer,
    resolutions: u64,
    clauses_built: u64,
}

impl<'a> ChainStep<'a> {
    /// Starts a run on `scratch`; `with_core` tracks the original
    /// clauses the proof touches.
    pub(crate) fn new(
        cnf: &'a Cnf,
        meter: MemoryMeter,
        config: &CheckConfig,
        scratch: &'a mut CheckScratch,
        with_core: bool,
        obs: &'a mut dyn Observer,
    ) -> Self {
        let kernel_base = scratch.start_run();
        let (kernel, arena, originals) = scratch.parts();
        ChainStep {
            cnf,
            num_original: cnf.num_clauses() as u64,
            kernel,
            arena,
            originals,
            kernel_base,
            used_originals: with_core.then(|| vec![false; cnf.num_clauses()]),
            meter,
            cancel: config.cancel.clone(),
            obs,
            resolutions: 0,
            clauses_built: 0,
        }
    }

    pub(crate) fn is_original(&self, id: u64) -> bool {
        id < self.num_original
    }

    /// Whether clause `id` can be read without building it.
    pub(crate) fn is_resident(&self, id: u64) -> bool {
        self.is_original(id) || self.arena.contains(id)
    }

    /// Resident learned clauses.
    pub(crate) fn resident_clauses(&self) -> u64 {
        self.arena.len() as u64
    }

    fn original(&mut self, id: u64) -> Arc<[Lit]> {
        if let Some(used) = &mut self.used_originals {
            used[id as usize] = true;
        }
        if let Some(c) = self.originals.get(id) {
            return c;
        }
        // A warm scratch may still hold the normalized clause from the
        // previous job on this formula; promoting it re-inserts through
        // the charged path, so this job's meter pays the same bytes at
        // the same point a cold run would.
        let lits: Arc<[Lit]> = self.originals.take_warm(id).unwrap_or_else(|| {
            let clause = self.cnf.clause(id as usize).expect("id < num_original");
            Arc::from(normalize_literals(clause.iter().copied()))
        });
        self.originals.insert(id, &lits, &mut self.meter);
        lits
    }

    /// Folds `sources` into the kernel as the derivation of `target`. A
    /// learned source that is not resident is an unknown clause.
    pub(crate) fn resolve(&mut self, target: u64, sources: &[u64]) -> Result<(), CheckError> {
        for (step, &source) in sources.iter().enumerate() {
            let folded = if self.is_original(source) {
                let clause = self.original(source);
                if step == 0 {
                    self.kernel.begin(&clause);
                    continue;
                }
                self.kernel.fold(&clause)
            } else {
                // Split borrow: the arena slice is read while the
                // kernel's disjoint scratch buffers are written.
                let Some(clause) = self.arena.get(source) else {
                    return Err(CheckError::UnknownClause {
                        id: source,
                        referenced_by: Some(target),
                    });
                };
                if step == 0 {
                    self.kernel.begin(clause);
                    continue;
                }
                self.kernel.fold(clause)
            };
            folded.map_err(|failure| CheckError::NotResolvable {
                target: Some(target),
                step,
                with: source,
                failure,
            })?;
            self.resolutions += 1;
        }
        Ok(())
    }

    /// Counts one rebuilt clause: a chain-length sample, and at every
    /// progress stride a cancellation poll and a heartbeat.
    pub(crate) fn count_built(&mut self, chain_len: usize) -> Result<(), CheckError> {
        self.obs.observe(&Event::HistRecord {
            name: "check.resolve.chain_len",
            value: chain_len as u64,
        });
        self.clauses_built += 1;
        if self.clauses_built.is_multiple_of(PROGRESS_STRIDE) {
            self.cancel.check()?;
            self.obs.observe(&Event::Progress {
                phase: "check:resolve",
                done: self.clauses_built,
                unit: "clauses",
                detail: None,
            });
        }
        Ok(())
    }

    /// Stores the resolvent of the last [`resolve`](Self::resolve) as
    /// clause `id`. Caches only ever hold spare budget: when the resolvent
    /// does not fit, cached originals give way first, then whatever
    /// `evict` frees, before the memory-out stands.
    pub(crate) fn store(
        &mut self,
        id: u64,
        mut evict: impl FnMut(&mut MemoryMeter) -> bool,
    ) -> Result<(), CheckError> {
        let lits = self.kernel.finish();
        let clause_len = lits.len() as u64;
        while let Err(err) = self.arena.insert(id, lits, &mut self.meter) {
            if !self.originals.evict_one(&mut self.meter) && !evict(&mut self.meter) {
                return Err(err);
            }
        }
        self.obs.observe(&Event::HistRecord {
            name: "check.resolve.clause_len",
            value: clause_len,
        });
        Ok(())
    }

    /// Frees resident clause `id`.
    pub(crate) fn free(&mut self, id: u64) {
        self.arena.remove(id, &mut self.meter);
    }

    /// Derives the empty clause from `start_id`. `build` makes a learned
    /// clause resident before the derivation reads it: depth-first
    /// builds level-0 antecedents on demand, the other engines kept
    /// theirs pinned.
    pub(crate) fn final_phase(
        &mut self,
        start_id: u64,
        level_zero: &LevelZeroMap,
        build: impl FnMut(&mut ChainStep<'a>, u64) -> Result<(), CheckError>,
    ) -> Result<(), CheckError> {
        let phase = Phase::start("final-phase", &mut *self.obs);
        let mut provider = FinalProvider { chain: self, build };
        let stats = derive_empty_clause(start_id, level_zero, &mut provider)?;
        phase.finish(&mut *self.obs);
        self.resolutions += stats.resolutions;
        Ok(())
    }

    /// Assembles the outcome and reports the end-of-run gauges;
    /// `table_entries` is the engine's per-clause bookkeeping size.
    pub(crate) fn finish(
        self,
        strategy: Strategy,
        learned_in_trace: u64,
        table_entries: u64,
        started: Instant,
        trace_bytes: Option<u64>,
    ) -> CheckOutcome {
        let core = self.used_originals.map(|used| {
            let ids = (0..used.len()).filter(|&i| used[i]).collect();
            UnsatCore::new(ids, self.cnf)
        });
        let stats = CheckStats {
            strategy,
            learned_in_trace,
            clauses_built: self.clauses_built,
            resolutions: self.resolutions,
            peak_memory_bytes: self.meter.peak(),
            runtime: started.elapsed(),
            trace_bytes,
        };
        emit_check_gauges(self.obs, &stats, table_entries);
        // Per-job deltas, so metrics stay meaningful when the kernel came
        // from a warm scratch with lifetime totals already on the clock.
        emit_kernel_gauges(
            self.obs,
            &kernel_stats_since(&self.kernel.stats(), &self.kernel_base),
            self.arena.charged_bytes(),
            self.arena.reuse_hits(),
        );
        CheckOutcome { core, stats }
    }
}

/// The final phase's view of a [`ChainStep`]: originals through the
/// cache, learned clauses from the arena once `build` made them resident.
struct FinalProvider<'c, 'a, F> {
    chain: &'c mut ChainStep<'a>,
    build: F,
}

impl<'a, F> ClauseProvider for FinalProvider<'_, 'a, F>
where
    F: FnMut(&mut ChainStep<'a>, u64) -> Result<(), CheckError>,
{
    fn clause_into(&mut self, id: u64, out: &mut Vec<Lit>) -> Result<(), CheckError> {
        out.clear();
        if self.chain.is_original(id) {
            out.extend_from_slice(&self.chain.original(id));
            return Ok(());
        }
        (self.build)(self.chain, id)?;
        let clause = self.chain.arena.get(id).ok_or(CheckError::UnknownClause {
            id,
            referenced_by: None,
        })?;
        out.extend_from_slice(clause);
        Ok(())
    }
}

/// Reports the end-of-run gauges every strategy shares.
pub(crate) fn emit_check_gauges(obs: &mut dyn Observer, stats: &CheckStats, table_entries: u64) {
    obs.observe(&Event::GaugeSet {
        name: "check.clauses_built",
        value: stats.clauses_built as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.resolutions",
        value: stats.resolutions as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.use_count_entries",
        value: table_entries as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.peak_memory_bytes",
        value: stats.peak_memory_bytes as f64,
    });
}

/// Reports the resolution-kernel and clause-arena gauges.
pub(crate) fn emit_kernel_gauges(
    obs: &mut dyn Observer,
    kernel: &KernelStats,
    arena_bytes: u64,
    arena_reuse_hits: u64,
) {
    obs.observe(&Event::GaugeSet {
        name: "check.kernel.chains",
        value: kernel.chains as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.kernel.literals_folded",
        value: kernel.literals_folded as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.kernel.scratch_grows",
        value: kernel.scratch_grows as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.kernel.scratch_high_water",
        value: kernel.scratch_high_water as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.arena.bytes",
        value: arena_bytes as f64,
    });
    obs.observe(&Event::GaugeSet {
        name: "check.arena.reuse_hits",
        value: arena_reuse_hits as f64,
    });
}
