//! The chain step every engine shares.
//!
//! Rebuilding one learned clause is the same job in depth-first,
//! breadth-first and hybrid checking: seed the [`ResolutionKernel`] with
//! the first resolve source, fold in the rest, and store the resolvent in
//! the [`ClauseArena`], borrowing original clauses from the formula's
//! [`NormalizedClauses`] (charged through the job's [`OriginalCache`])
//! along the way. Each resolve source costs one indexed load: an
//! original's id indexes the normalized table, a learned clause's dense
//! id ([`IdSpace`]) the arena. [`ChainStep`] does that job on the kernel,
//! arena and charges of the caller's [`CheckScratch`], and also
//! runs the final empty-clause phase and reports the end-of-run gauges.
//! Each engine keeps only its pass 1, the order in which it rebuilds
//! clauses, and when it frees them.

use crate::api::CheckConfig;
use crate::arena::ClauseArena;
use crate::cache::{NormalizedClauses, OriginalCache};
use crate::cancel::CancelFlag;
use crate::error::CheckError;
use crate::final_phase::{derive_empty_clause, ClauseProvider};
use crate::ids::IdSpace;
use crate::kernel::{KernelStats, ResolutionKernel};
use crate::memory::MemoryMeter;
use crate::model::LevelZeroMap;
use crate::outcome::{CheckOutcome, CheckStats, Strategy, UnsatCore};
use crate::scratch::{kernel_stats_since, CheckScratch};
use rescheck_cnf::{Cnf, Lit};
use rescheck_obs::{Event, Observer, Phase, Span};
use std::time::{Duration, Instant};

/// Progress events are emitted once per this many built clauses; the
/// reporter applies its own (coarser) heartbeat threshold on top.
pub(crate) const PROGRESS_STRIDE: u64 = 1024;

/// One job's resolution state, borrowed from a [`CheckScratch`].
pub(crate) struct ChainStep<'a> {
    cnf: &'a Cnf,
    ids: &'a IdSpace,
    kernel: &'a mut ResolutionKernel,
    /// Resident learned clauses, by table index.
    arena: &'a mut ClauseArena,
    /// The formula's normalized original clauses.
    table: &'a NormalizedClauses,
    /// Which originals are charged to the meter, like every other
    /// resident clause.
    originals: &'a mut OriginalCache,
    /// Kernel counters at job start, for per-job delta gauges.
    kernel_base: KernelStats,
    /// Original clauses touched so far (the unsat core), for engines
    /// that report one.
    used_originals: Option<Vec<bool>>,
    pub(crate) meter: MemoryMeter,
    pub(crate) cancel: CancelFlag,
    pub(crate) obs: &'a mut dyn Observer,
    resolutions: u64,
    clauses_built: u64,
}

impl<'a> ChainStep<'a> {
    /// Starts a run on `scratch` over the learned clauses `ids` defines;
    /// `with_core` tracks the original clauses the proof touches.
    ///
    /// # Panics
    ///
    /// Panics if `table` has not as many clauses as `cnf`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cnf: &'a Cnf,
        table: &'a NormalizedClauses,
        ids: &'a IdSpace,
        meter: MemoryMeter,
        config: &CheckConfig,
        scratch: &'a mut CheckScratch,
        with_core: bool,
        obs: &'a mut dyn Observer,
    ) -> Self {
        assert_eq!(
            table.num_clauses(),
            cnf.num_clauses(),
            "the normalized table must be built from this formula"
        );
        let kernel_base = scratch.start_run(cnf.num_clauses(), ids.len());
        let (kernel, arena, originals) = scratch.parts();
        ChainStep {
            cnf,
            table,
            ids,
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

    /// The id space the run's tables are indexed by.
    pub(crate) fn ids(&self) -> &'a IdSpace {
        self.ids
    }

    /// Whether clause `id` can be read without building it.
    pub(crate) fn is_resident(&self, id: u64) -> bool {
        self.ids.is_original(id)
            || self
                .ids
                .index(id)
                .is_some_and(|index| self.arena.contains(index))
    }

    /// Resident learned clauses.
    pub(crate) fn resident_clauses(&self) -> u64 {
        self.arena.len() as u64
    }

    /// Folds `sources` into the kernel as the derivation of `target`. A
    /// learned source that is not resident is an unknown clause.
    pub(crate) fn resolve(&mut self, target: u64, sources: &[u64]) -> Result<(), CheckError> {
        for (step, &source) in sources.iter().enumerate() {
            // Split borrows: the table or arena slice is read while the
            // kernel's disjoint scratch buffers are written.
            let clause = if self.ids.is_original(source) {
                if let Some(used) = &mut self.used_originals {
                    used[source as usize] = true;
                }
                self.originals
                    .get(self.table, source as usize, &mut self.meter)
            } else {
                let resident = self.ids.index(source).and_then(|i| self.arena.get(i));
                // Built only on failure: a per-fold `ok_or` would build
                // and drop an error for every learned source.
                let Some(clause) = resident else {
                    return Err(CheckError::UnknownClause {
                        id: source,
                        referenced_by: Some(target),
                    });
                };
                clause
            };
            if step == 0 {
                self.kernel.begin(clause);
                continue;
            }
            self.kernel
                .fold(clause)
                .map_err(|failure| CheckError::NotResolvable {
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
    /// learned clause `id`. The original table only ever holds spare
    /// budget: when the resolvent does not fit, held originals give way
    /// before the memory-out stands.
    pub(crate) fn store(&mut self, id: u64) -> Result<(), CheckError> {
        let index = self.ids.index(id).expect("a rebuilt clause is defined");
        let lits = self.kernel.finish();
        let clause_len = lits.len() as u64;
        while let Err(err) = self.arena.insert(index, lits, &mut self.meter) {
            if !self.originals.evict_one(self.table, &mut self.meter) {
                return Err(err);
            }
        }
        self.obs.observe(&Event::HistRecord {
            name: "check.resolve.clause_len",
            value: clause_len,
        });
        Ok(())
    }

    /// Frees the resident learned clause at table index `index`.
    pub(crate) fn free(&mut self, index: usize) {
        self.arena.remove(index, &mut self.meter);
    }

    /// Derives the empty clause from `start_id`. `build` makes a learned
    /// clause resident before the derivation reads it: depth-first
    /// builds level-0 antecedents on demand, the other engines kept
    /// theirs pinned.
    ///
    /// Clauses built on demand are resolution work, so their summed time
    /// is reported as one `check:resolve` span inside `final-phase` —
    /// one span however many builds ran, which leaves `final-phase`'s own
    /// time to the empty-clause derivation.
    pub(crate) fn final_phase(
        &mut self,
        start_id: u64,
        level_zero: &LevelZeroMap,
        build: impl FnMut(&mut ChainStep<'a>, u64) -> Result<(), CheckError>,
    ) -> Result<(), CheckError> {
        let phase = Phase::start("final-phase", &mut *self.obs);
        let built_before = self.clauses_built;
        let mut provider = FinalProvider {
            chain: self,
            build,
            building: Duration::ZERO,
        };
        let stats = derive_empty_clause(start_id, level_zero, &mut provider)?;
        let building = provider.building;
        if self.clauses_built > built_before {
            report_span("check:resolve", building, &mut *self.obs);
        }
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

/// Reports `wall` as one finished span `name` under the innermost open
/// span. Opening the span links it into the tree; dropping it unstopped
/// unlinks it without a finish event, which is then sent with `wall`.
fn report_span(name: &'static str, wall: Duration, obs: &mut dyn Observer) {
    let span = Span::start(name, obs);
    let id = span.id();
    drop(span);
    obs.observe(&Event::SpanFinished { id, name, wall });
}

/// The final phase's view of a [`ChainStep`]: originals from the table,
/// learned clauses from the arena once `build` made them resident.
struct FinalProvider<'c, 'a, F> {
    chain: &'c mut ChainStep<'a>,
    build: F,
    /// Time spent in `build`.
    building: Duration,
}

impl<'a, F> ClauseProvider for FinalProvider<'_, 'a, F>
where
    F: FnMut(&mut ChainStep<'a>, u64) -> Result<(), CheckError>,
{
    fn clause_into(&mut self, id: u64, out: &mut Vec<Lit>) -> Result<(), CheckError> {
        out.clear();
        let chain = &mut *self.chain;
        if chain.ids.is_original(id) {
            if let Some(used) = &mut chain.used_originals {
                used[id as usize] = true;
            }
            out.extend_from_slice(
                chain
                    .originals
                    .get(chain.table, id as usize, &mut chain.meter),
            );
            return Ok(());
        }
        let started = Instant::now();
        (self.build)(self.chain, id)?;
        self.building += started.elapsed();
        let chain = &*self.chain;
        let clause = chain.ids.index(id).and_then(|index| chain.arena.get(index));
        out.extend_from_slice(clause.ok_or(CheckError::UnknownClause {
            id,
            referenced_by: None,
        })?);
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
