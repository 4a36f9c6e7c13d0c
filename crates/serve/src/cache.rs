//! Small caches shared by all workers: parsed formulas and opened
//! trace handles.
//!
//! Campaigns routinely submit many jobs against the same CNF (one formula,
//! many traces). Parsing DIMACS per job would dominate small checks, so
//! the daemon keys parsed formulas by an FNV-1a hash of the DIMACS text
//! and hands out `Arc<Cnf>` clones. Each distinct formula also gets a
//! stable **token**, which is what [`CheckScratch::begin_job`] uses to
//! decide whether a worker's warm original-clause tier may be reused —
//! same token, same formula, warm reuse is sound.
//!
//! The same campaigns also re-check one trace *file* under several
//! strategies or job counts. A [`TraceCache`] keys opened [`FileTrace`]
//! handles by path (revalidated by length + mtime) and hands out clones
//! that share the original's established byte buffer — so the daemon
//! reads a repeatedly checked trace once instead of per job.
//!
//! [`CheckScratch::begin_job`]: rescheck_checker::CheckScratch::begin_job

use rescheck_cnf::dimacs;
use rescheck_cnf::{Cnf, ParseDimacsError};
use rescheck_trace::{FileTrace, TraceSource};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// Parsed formulas the cache keeps resident at once. Entries are whole
/// CNFs, so the cap is deliberately small; eviction is FIFO.
const CACHE_CAPACITY: usize = 8;

struct Entry {
    /// Stored to disambiguate genuine hits from 64-bit hash collisions.
    text_len: usize,
    text_fnv: u64,
    cnf: Arc<Cnf>,
    token: u64,
}

/// A parsed formula plus its identity token for scratch warm-tier reuse.
#[derive(Clone)]
pub struct CachedFormula {
    /// The parsed formula.
    pub cnf: Arc<Cnf>,
    /// Stable identity: equal tokens ⇒ byte-identical DIMACS source.
    pub token: u64,
}

#[derive(Default)]
struct State {
    entries: HashMap<u64, Entry>,
    order: VecDeque<u64>,
    next_token: u64,
    hits: u64,
    misses: u64,
}

/// Content-addressed `Arc<Cnf>` cache with FIFO eviction.
#[derive(Default)]
pub struct FormulaCache {
    state: Mutex<State>,
}

impl FormulaCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        FormulaCache::default()
    }

    /// Parses `text` as DIMACS, or returns the cached parse of identical
    /// text. Tokens are assigned once per distinct formula and survive
    /// eviction-free for the entry's lifetime; a re-inserted formula gets
    /// a *fresh* token, which at worst costs a warm-tier rebuild, never
    /// correctness.
    ///
    /// # Errors
    ///
    /// Propagates the DIMACS parse error for malformed input (parse
    /// failures are not cached).
    pub fn load_text(&self, text: &str) -> Result<CachedFormula, ParseDimacsError> {
        let key = fnv1a(text.as_bytes());
        {
            let mut state = self.state.lock().expect("formula cache poisoned");
            if let Some(entry) = state.entries.get(&key) {
                if entry.text_len == text.len() && entry.text_fnv == key {
                    let hit = CachedFormula {
                        cnf: Arc::clone(&entry.cnf),
                        token: entry.token,
                    };
                    state.hits += 1;
                    return Ok(hit);
                }
            }
        }
        let cnf = Arc::new(dimacs::parse_str(text)?);
        let mut state = self.state.lock().expect("formula cache poisoned");
        state.misses += 1;
        let token = state.next_token;
        state.next_token += 1;
        if state.order.len() >= CACHE_CAPACITY {
            if let Some(oldest) = state.order.pop_front() {
                state.entries.remove(&oldest);
            }
        }
        state.entries.insert(
            key,
            Entry {
                text_len: text.len(),
                text_fnv: key,
                cnf: Arc::clone(&cnf),
                token,
            },
        );
        state.order.push_back(key);
        Ok(CachedFormula { cnf, token })
    }

    /// `(hits, misses)` so far — exported as `serve.formula_cache.*`.
    pub fn stats(&self) -> (u64, u64) {
        let state = self.state.lock().expect("formula cache poisoned");
        (state.hits, state.misses)
    }
}

struct TraceEntry {
    /// Revalidation stamp: a changed length or mtime means the file was
    /// rewritten and the cached handle (and its map) must not be reused.
    len: u64,
    mtime: Option<SystemTime>,
    trace: FileTrace,
}

#[derive(Default)]
struct TraceState {
    entries: HashMap<String, TraceEntry>,
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
}

/// Path-keyed cache of opened [`FileTrace`] handles with FIFO eviction.
///
/// The payoff is not the `open` syscall but the **byte buffer**: the
/// cache establishes each handle's [`rescheck_trace::TraceMap`] once,
/// and the clones it hands out share it — a campaign checking one trace
/// file under several strategies or worker counts reads it exactly once.
///
/// The backing is always the buffered read, never `mmap`: the files are
/// user-supplied, and truncating a mapped file raises `SIGBUS`, which no
/// panic boundary can catch. A buffered copy outlives any truncation.
#[derive(Default)]
pub struct TraceCache {
    state: Mutex<TraceState>,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// Opens `path`, or returns a clone of the cached handle when the
    /// file's length and mtime are unchanged. The clone shares the
    /// cached handle's buffered byte map (binary traces; ASCII traces
    /// have no map and simply skip the establishment).
    ///
    /// # Errors
    ///
    /// Propagates `stat`/`open` failures; failures are not cached.
    pub fn open(&self, path: &str) -> io::Result<FileTrace> {
        let meta = std::fs::metadata(path)?;
        let (len, mtime) = (meta.len(), meta.modified().ok());
        {
            let mut state = self.state.lock().expect("trace cache poisoned");
            if let Some(entry) = state.entries.get(path) {
                if entry.len == len && entry.mtime == mtime {
                    let trace = entry.trace.clone();
                    state.hits += 1;
                    return Ok(trace);
                }
            }
        }
        let trace = FileTrace::open(path)?;
        // Establish the shared map *before* caching: clones share an
        // already-established map, while one established later would
        // live on that job's clone alone.
        let _ = trace.trace_map(false);
        let mut state = self.state.lock().expect("trace cache poisoned");
        state.misses += 1;
        if !state.entries.contains_key(path) {
            if state.order.len() >= CACHE_CAPACITY {
                if let Some(oldest) = state.order.pop_front() {
                    state.entries.remove(&oldest);
                }
            }
            state.order.push_back(path.to_string());
        }
        state.entries.insert(
            path.to_string(),
            TraceEntry {
                len,
                mtime,
                trace: trace.clone(),
            },
        );
        Ok(trace)
    }

    /// `(hits, misses)` so far — exported as `serve.trace_cache.*`.
    pub fn stats(&self) -> (u64, u64) {
        let state = self.state.lock().expect("trace cache poisoned");
        (state.hits, state.misses)
    }
}

/// 64-bit FNV-1a — tiny, dependency-free, good enough for a keyed cache
/// that double-checks length on hit.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &str = "p cnf 1 2\n1 0\n-1 0\n";

    #[test]
    fn identical_text_hits_and_shares_a_token() {
        let cache = FormulaCache::new();
        let a = cache.load_text(TINY).unwrap();
        let b = cache.load_text(TINY).unwrap();
        assert_eq!(a.token, b.token);
        assert!(Arc::ptr_eq(&a.cnf, &b.cnf));
        assert_eq!(cache.stats(), (1, 1));
    }

    #[test]
    fn distinct_text_gets_distinct_tokens() {
        let cache = FormulaCache::new();
        let a = cache.load_text(TINY).unwrap();
        let b = cache.load_text("p cnf 2 1\n1 2 0\n").unwrap();
        assert_ne!(a.token, b.token);
        assert_eq!(cache.stats(), (0, 2));
    }

    #[test]
    fn parse_errors_propagate_and_are_not_cached() {
        let cache = FormulaCache::new();
        assert!(cache.load_text("p cnf nonsense").is_err());
        assert_eq!(cache.stats(), (0, 0));
    }

    fn write_binary_trace(name: &str) -> std::path::PathBuf {
        use rescheck_trace::{BinaryWriter, TraceSink};
        let path = std::env::temp_dir().join(format!(
            "rescheck-serve-cache-{}-{name}.rtb",
            std::process::id()
        ));
        let mut buf = Vec::new();
        {
            let mut w = BinaryWriter::new(&mut buf).unwrap();
            w.learned(2, &[0, 1]).unwrap();
            w.final_conflict(2).unwrap();
        }
        std::fs::write(&path, buf).unwrap();
        path
    }

    #[test]
    fn trace_cache_hits_on_unchanged_files() {
        let path = write_binary_trace("hit");
        let cache = TraceCache::new();
        let a = cache.open(path.to_str().unwrap()).unwrap();
        let b = cache.open(path.to_str().unwrap()).unwrap();
        assert_eq!(cache.stats(), (1, 1));
        // Both handles decode the same events.
        use rescheck_trace::TraceSource;
        let ea: Vec<_> = a.events_iter().unwrap().map(Result::unwrap).collect();
        let eb: Vec<_> = b.events_iter().unwrap().map(Result::unwrap).collect();
        assert_eq!(ea, eb);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_cache_revalidates_on_length_change() {
        use rescheck_trace::{BinaryWriter, TraceSink, TraceSource};
        let path = write_binary_trace("stale");
        let cache = TraceCache::new();
        cache.open(path.to_str().unwrap()).unwrap();
        // Rewrite the file with one more event: the stale handle must
        // not be served.
        let mut buf = Vec::new();
        {
            let mut w = BinaryWriter::new(&mut buf).unwrap();
            w.learned(2, &[0, 1]).unwrap();
            w.learned(3, &[2, 1]).unwrap();
            w.final_conflict(3).unwrap();
        }
        std::fs::write(&path, buf).unwrap();
        let fresh = cache.open(path.to_str().unwrap()).unwrap();
        assert_eq!(fresh.events_iter().unwrap().count(), 3);
        assert_eq!(cache.stats().1, 2, "rewrite must be a miss");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncating_a_cached_trace_cannot_fault_its_handle() {
        // Reading a mapped page past a truncation raises SIGBUS; the
        // cache holds a buffered copy instead, so the handle decodes
        // every event the file had when it was opened.
        use rescheck_trace::{BinaryWriter, TraceSink};
        let path = std::env::temp_dir().join(format!(
            "rescheck-serve-cache-{}-truncated.rtb",
            std::process::id()
        ));
        let mut buf = Vec::new();
        {
            let mut w = BinaryWriter::new(&mut buf).unwrap();
            for id in 2..20_002u64 {
                w.learned(id, &[0, 1]).unwrap();
            }
            w.final_conflict(2).unwrap();
        }
        assert!(buf.len() > 16 * 4096, "the trace spans many pages");
        std::fs::write(&path, buf).unwrap();
        let trace = TraceCache::new().open(path.to_str().unwrap()).unwrap();
        // Cut at a page boundary: a mapping would fault on the next page.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(4096).unwrap();
        let events = trace.events_iter().unwrap().map(Result::unwrap).count();
        assert_eq!(events, 20_001);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_cache_propagates_open_errors() {
        let cache = TraceCache::new();
        assert!(cache.open("/nonexistent/rescheck-trace.rtb").is_err());
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn eviction_is_fifo_and_reinsert_changes_token() {
        let cache = FormulaCache::new();
        let first = cache.load_text(TINY).unwrap();
        for i in 0..CACHE_CAPACITY {
            let text = format!("p cnf {n} 1\n{n} 0\n", n = i + 1);
            cache.load_text(&text).unwrap();
        }
        // TINY was evicted; loading it again re-parses under a new token.
        let again = cache.load_text(TINY).unwrap();
        assert_ne!(first.token, again.token);
    }
}
