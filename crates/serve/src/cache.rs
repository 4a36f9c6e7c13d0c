//! One cache, shared by all workers, of the inputs jobs read: parsed
//! formulas and binary traces read into memory.
//!
//! Campaigns routinely submit many jobs against the same files (one
//! formula, many traces; one trace under several strategies). The
//! [`InputCache`] prepares each input once and hands every later job a
//! shared handle to it:
//!
//! - a formula ([`Formula`]) is parsed once and its clauses are
//!   normalized once into the [`NormalizedClauses`] table every job on it
//!   reads in place;
//! - a binary trace file is read once into a [`TraceMap`]. The copy
//!   outlives the file, so a trace truncated or rewritten while a job
//!   runs changes nothing that job sees. ASCII traces are not cached:
//!   each job reads its own [`FileTrace`] from disk.
//!
//! Files are keyed by path. The `stat` every job takes on a path (which
//! also refuses anything but a regular file before it is opened)
//! revalidates the entry: a changed length or mtime makes the job read
//! the file afresh. A rewrite that keeps both the length and the mtime
//! (within the file system's timestamp granularity) goes unseen until
//! either changes. Inline formulas are keyed by their length and FNV-1a
//! hash.
//!
//! The cache is bounded by [`CACHE_BYTES`], summed over its entries, and
//! evicts the oldest entry first. Its memory is the daemon's own, not
//! leased from `--mem-total`: the jobs' accounted budgets are unchanged
//! by what the cache holds.

use rescheck_checker::NormalizedClauses;
use rescheck_cnf::{dimacs, Cnf, Lit};
use rescheck_trace::{FileTrace, TraceFormat, TraceMap, TraceSource};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

/// The bytes the cache keeps resident: a formula counts its parsed
/// clauses and their normalized table, a trace its file length. A
/// campaign's working set of small files fits; an input larger than the
/// bound is used uncached.
pub const CACHE_BYTES: usize = 64 << 20;

/// A parsed formula and its normalized clauses, shared by every job on it.
#[derive(Debug)]
pub struct Formula {
    /// The formula as parsed.
    pub cnf: Cnf,
    /// Its clauses normalized, the table every check on it reads.
    pub clauses: NormalizedClauses,
}

impl Formula {
    /// The parsed clauses and the table share one layout: the literals
    /// and one offset per clause (the table is never longer).
    fn bytes(&self) -> usize {
        let cnf = &self.cnf;
        2 * (cnf.num_literals() * size_of::<Lit>() + cnf.num_clauses() * size_of::<usize>())
    }
}

/// A trace file as [`InputCache::trace`] hands it out.
#[derive(Clone, Debug)]
pub enum CachedTrace {
    /// A binary trace: the in-memory copy every job on the file shares.
    Map(Arc<TraceMap>),
    /// An ASCII trace, opened for this job and read from disk.
    File(FileTrace),
}

impl CachedTrace {
    /// The trace as a checker source.
    pub fn source(&self) -> &dyn TraceSource {
        match self {
            CachedTrace::Map(map) => &**map,
            CachedTrace::File(file) => file,
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum Key {
    /// A `cnf_path` file.
    Formula(String),
    /// A binary `trace_path` file.
    Trace(String),
    /// An inline formula: its length and FNV-1a hash.
    Text(usize, u64),
}

#[derive(Clone)]
enum Value {
    Formula(Arc<Formula>),
    Trace(Arc<TraceMap>),
}

/// A file's length and mtime when it was read.
type Stamp = (u64, Option<SystemTime>);

struct Entry {
    /// `None` for inline text.
    stamp: Option<Stamp>,
    bytes: usize,
    value: Value,
}

#[derive(Default)]
struct State {
    entries: HashMap<Key, Entry>,
    /// Keys in insertion order, for FIFO eviction.
    order: VecDeque<Key>,
    bytes: usize,
    /// `(hits, misses)` of formula lookups.
    formulas: (u64, u64),
    /// `(hits, misses)` of trace lookups.
    traces: (u64, u64),
}

impl State {
    fn counts(&mut self, key: &Key) -> &mut (u64, u64) {
        match key {
            Key::Trace(_) => &mut self.traces,
            Key::Formula(_) | Key::Text(..) => &mut self.formulas,
        }
    }
}

/// Path- and content-keyed cache of prepared inputs, bounded by bytes,
/// with FIFO eviction.
pub struct InputCache {
    state: Mutex<State>,
    bound: usize,
}

impl Default for InputCache {
    fn default() -> Self {
        InputCache::with_bound(CACHE_BYTES)
    }
}

impl InputCache {
    /// An empty cache bounded by [`CACHE_BYTES`].
    pub fn new() -> Self {
        InputCache::default()
    }

    /// An empty cache that keeps at most `bound` bytes resident.
    fn with_bound(bound: usize) -> Self {
        InputCache {
            state: Mutex::default(),
            bound,
        }
    }

    /// The formula of the inline DIMACS `text`.
    ///
    /// # Errors
    ///
    /// A message naming the parse error (not cached).
    pub fn formula_text(&self, text: &str) -> Result<Arc<Formula>, String> {
        let key = Key::Text(text.len(), fnv1a(text.as_bytes()));
        self.formula(key, None, || Ok(Cow::Borrowed(text)))
    }

    /// The formula of the DIMACS file at `path`.
    ///
    /// # Errors
    ///
    /// A message naming the `stat`/read failure or the parse error (not
    /// cached).
    pub fn formula_file(&self, path: &str) -> Result<Arc<Formula>, String> {
        let reading = |e: io::Error| format!("reading {path}: {e}");
        let stamp = stat(path).map_err(reading)?;
        let key = Key::Formula(path.to_string());
        self.formula(key, Some(stamp), || {
            std::fs::read_to_string(path)
                .map(Cow::Owned)
                .map_err(reading)
        })
    }

    /// The formula cached under `key` with `stamp`, else the text `read`
    /// returns, parsed, normalized and cached.
    fn formula<'t>(
        &self,
        key: Key,
        stamp: Option<Stamp>,
        read: impl FnOnce() -> Result<Cow<'t, str>, String>,
    ) -> Result<Arc<Formula>, String> {
        if let Some(Value::Formula(formula)) = self.get(&key, stamp) {
            return Ok(formula);
        }
        let cnf = dimacs::parse_str(&read()?).map_err(|e| format!("parsing formula: {e}"))?;
        let clauses = NormalizedClauses::new(&cnf);
        let formula = Arc::new(Formula { cnf, clauses });
        self.put(
            key,
            stamp,
            formula.bytes(),
            Value::Formula(Arc::clone(&formula)),
        );
        Ok(formula)
    }

    /// The trace file at `path`: the cached copy when the file's length
    /// and mtime are unchanged, else the file read afresh — into memory,
    /// and cached, when it is a binary trace.
    ///
    /// # Errors
    ///
    /// `stat`/open/read failures (not cached).
    pub fn trace(&self, path: &str) -> io::Result<CachedTrace> {
        let stamp = stat(path)?;
        let key = Key::Trace(path.to_string());
        if let Some(Value::Trace(map)) = self.get(&key, Some(stamp)) {
            return Ok(CachedTrace::Map(map));
        }
        let file = FileTrace::open(path)?;
        if file.format() == TraceFormat::Ascii {
            self.lock().traces.1 += 1;
            return Ok(CachedTrace::File(file));
        }
        let map = Arc::new(TraceMap::open(file.path())?);
        let bytes = map.bytes().len();
        self.put(key, Some(stamp), bytes, Value::Trace(Arc::clone(&map)));
        Ok(CachedTrace::Map(map))
    }

    /// `(hits, misses)` of formula lookups so far — exported as
    /// `serve.formula_cache.*`.
    pub fn formula_stats(&self) -> (u64, u64) {
        self.lock().formulas
    }

    /// `(hits, misses)` of trace lookups so far — exported as
    /// `serve.trace_cache.*`. Every open of an ASCII trace, which is
    /// never cached, is a miss.
    pub fn trace_stats(&self) -> (u64, u64) {
        self.lock().traces
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("input cache poisoned")
    }

    /// The entry under `key` when it was read with `stamp`, counted as a
    /// hit.
    fn get(&self, key: &Key, stamp: Option<Stamp>) -> Option<Value> {
        let mut state = self.lock();
        let entry = state.entries.get(key).filter(|e| e.stamp == stamp)?;
        let value = entry.value.clone();
        state.counts(key).0 += 1;
        Some(value)
    }

    /// Counts a miss and caches `value` under `key`, in place of any
    /// stale entry, evicting the oldest entries until it fits.
    fn put(&self, key: Key, stamp: Option<Stamp>, bytes: usize, value: Value) {
        let mut state = self.lock();
        let state = &mut *state;
        state.counts(&key).1 += 1;
        if let Some(stale) = state.entries.remove(&key) {
            state.bytes -= stale.bytes;
            state.order.retain(|k| *k != key);
        }
        if bytes > self.bound {
            return;
        }
        while state.bytes + bytes > self.bound {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            if let Some(evicted) = state.entries.remove(&oldest) {
                state.bytes -= evicted.bytes;
            }
        }
        state.bytes += bytes;
        state.order.push_back(key.clone());
        state.entries.insert(
            key,
            Entry {
                stamp,
                bytes,
                value,
            },
        );
    }
}

/// The length and mtime of `path`, refusing anything but a regular file
/// before it is opened: opening a FIFO with no writer would block the
/// worker past any deadline.
fn stat(path: &str) -> io::Result<Stamp> {
    let meta = std::fs::metadata(path)?;
    if !meta.is_file() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "not a regular file",
        ));
    }
    Ok((meta.len(), meta.modified().ok()))
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
    use std::path::PathBuf;
    use std::time::Duration;

    const TINY: &str = "p cnf 1 2\n1 0\n-1 0\n";

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rescheck-serve-cache-{}-{name}",
            std::process::id()
        ))
    }

    #[test]
    fn identical_text_hits_and_shares_one_formula() {
        let cache = InputCache::new();
        let a = cache.formula_text(TINY).unwrap();
        let b = cache.formula_text(TINY).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.clauses.num_clauses(), 2);
        assert_eq!(cache.formula_stats(), (1, 1));
    }

    #[test]
    fn distinct_text_misses() {
        let cache = InputCache::new();
        let a = cache.formula_text(TINY).unwrap();
        let b = cache.formula_text("p cnf 2 1\n1 2 0\n").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.formula_stats(), (0, 2));
    }

    #[test]
    fn parse_errors_propagate_and_are_not_cached() {
        let cache = InputCache::new();
        assert!(cache.formula_text("p cnf nonsense").is_err());
        assert_eq!(cache.formula_stats(), (0, 0));
    }

    #[test]
    fn a_formula_file_rewritten_in_place_is_parsed_afresh() {
        let path = temp("rewrite.cnf");
        let name = path.to_str().unwrap();
        let cache = InputCache::new();
        std::fs::write(&path, "p cnf 2 1\n1 2 0\n").unwrap();
        let first = cache.formula_file(name).unwrap();
        assert!(Arc::ptr_eq(&first, &cache.formula_file(name).unwrap()));
        // A new length.
        std::fs::write(&path, "p cnf 2 2\n1 0\n2 0\n").unwrap();
        let longer = cache.formula_file(name).unwrap();
        assert_eq!(longer.cnf.num_clauses(), 2);
        // The same length and a later mtime.
        std::fs::write(&path, "p cnf 2 2\n2 0\n1 0\n").unwrap();
        let file = std::fs::File::options().write(true).open(&path).unwrap();
        file.set_modified(SystemTime::now() + Duration::from_secs(60))
            .unwrap();
        drop(file);
        let same_len = cache.formula_file(name).unwrap();
        assert!(!Arc::ptr_eq(&longer, &same_len));
        assert_eq!(same_len.cnf.clause(1).unwrap(), [Lit::from_dimacs(1)]);
        assert_eq!(cache.formula_stats(), (1, 3));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn eviction_is_fifo_within_the_byte_bound() {
        let one = InputCache::new().formula_text(TINY).unwrap().bytes();
        let cache = InputCache::with_bound(2 * one);
        let texts = [TINY, "p cnf 1 2\n-1 0\n1 0\n", "p cnf 2 2\n2 0\n-2 0\n"];
        let first = cache.formula_text(texts[0]).unwrap();
        cache.formula_text(texts[1]).unwrap();
        assert!(Arc::ptr_eq(&first, &cache.formula_text(texts[0]).unwrap()));
        // The third fills the cache past its bound: the oldest goes, and
        // the next job on it parses it again.
        cache.formula_text(texts[2]).unwrap();
        let again = cache.formula_text(texts[0]).unwrap();
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(cache.formula_stats(), (1, 4));
        // A formula larger than the bound is used uncached.
        let tight = InputCache::with_bound(one - 1);
        tight.formula_text(TINY).unwrap();
        tight.formula_text(TINY).unwrap();
        assert_eq!(tight.formula_stats(), (0, 2));
    }

    fn write_binary_trace(name: &str) -> PathBuf {
        use rescheck_trace::{BinaryWriter, TraceSink};
        let path = temp(&format!("{name}.rtb"));
        let mut buf = Vec::new();
        {
            let mut w = BinaryWriter::new(&mut buf).unwrap();
            w.learned(2, &[0, 1]).unwrap();
            w.final_conflict(2).unwrap();
        }
        std::fs::write(&path, buf).unwrap();
        path
    }

    fn map_of(trace: CachedTrace) -> Arc<TraceMap> {
        match trace {
            CachedTrace::Map(map) => map,
            CachedTrace::File(file) => panic!("binary trace opened as {file:?}"),
        }
    }

    fn event_count(trace: &CachedTrace) -> usize {
        rescheck_trace::collect_events(trace.source())
            .unwrap()
            .len()
    }

    #[test]
    fn trace_cache_hits_on_unchanged_files() {
        let path = write_binary_trace("hit");
        let cache = InputCache::new();
        let a = map_of(cache.trace(path.to_str().unwrap()).unwrap());
        let b = map_of(cache.trace(path.to_str().unwrap()).unwrap());
        assert_eq!(cache.trace_stats(), (1, 1));
        // Both handles share one copy of the file.
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.bytes(), std::fs::read(&path).unwrap().as_slice());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ascii_traces_are_read_from_disk_per_job() {
        let path = temp("ascii.rt");
        std::fs::write(&path, "r 2 2 0 1\nf 2\n").unwrap();
        let cache = InputCache::new();
        for _ in 0..2 {
            let trace = cache.trace(path.to_str().unwrap()).unwrap();
            assert!(matches!(trace, CachedTrace::File(_)), "{trace:?}");
            assert_eq!(event_count(&trace), 2);
        }
        assert_eq!(cache.trace_stats(), (0, 2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_cache_revalidates_on_length_change() {
        use rescheck_trace::{BinaryWriter, TraceSink};
        let path = write_binary_trace("stale");
        let cache = InputCache::new();
        cache.trace(path.to_str().unwrap()).unwrap();
        // Rewrite the file with one more event: the stale copy must
        // not be served.
        let mut buf = Vec::new();
        {
            let mut w = BinaryWriter::new(&mut buf).unwrap();
            w.learned(2, &[0, 1]).unwrap();
            w.learned(3, &[2, 1]).unwrap();
            w.final_conflict(3).unwrap();
        }
        std::fs::write(&path, buf).unwrap();
        let fresh = cache.trace(path.to_str().unwrap()).unwrap();
        assert_eq!(event_count(&fresh), 3);
        assert_eq!(cache.trace_stats().1, 2, "rewrite must be a miss");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncating_a_cached_trace_cannot_fault_its_handle() {
        // The cache holds a buffered copy, so the handle decodes every
        // event the file had when it was opened.
        use rescheck_trace::{BinaryWriter, TraceSink};
        let path = temp("truncated.rtb");
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
        let trace = InputCache::new().trace(path.to_str().unwrap()).unwrap();
        // Cut at a page boundary.
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(4096).unwrap();
        assert_eq!(event_count(&trace), 20_001);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_cache_propagates_open_errors() {
        let cache = InputCache::new();
        assert!(cache.trace("/nonexistent/rescheck-trace.rtb").is_err());
        assert!(cache.formula_file("/nonexistent/rescheck.cnf").is_err());
        assert_eq!(
            (cache.trace_stats(), cache.formula_stats()),
            ((0, 0), (0, 0))
        );
    }
}
