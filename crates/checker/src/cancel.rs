//! Cooperative cancellation of a running check.
//!
//! The `rescheck serve` watchdog stops a job whose deadline passed
//! while a worker thread is still checking it. There is no safe way to
//! kill a thread, so cancellation is cooperative: each strategy polls a
//! shared flag at its progress-stride points (every
//! [`crate::chain::PROGRESS_STRIDE`] clauses, and periodically
//! during trace passes) and bails out with [`CheckError::Cancelled`].

use crate::error::CheckError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shareable, thread-safe cancellation flag.
///
/// The default flag is *unarmed*: it can never fire and costs nothing to
/// poll, so sequential checks pay no synchronisation overhead. An armed
/// flag ([`CancelFlag::armed`]) shares one atomic across clones; setting
/// it through any clone cancels every check polling it.
///
/// # Examples
///
/// ```
/// use rescheck_checker::{CancelFlag, CheckError};
///
/// let flag = CancelFlag::armed();
/// let watcher = flag.clone();
/// assert!(flag.check().is_ok());
/// watcher.cancel();
/// assert!(matches!(flag.check(), Err(CheckError::Cancelled)));
///
/// // The default flag can never fire.
/// assert!(!CancelFlag::default().is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelFlag(Option<Arc<AtomicBool>>);

impl CancelFlag {
    /// A flag that can actually be fired (the default is inert).
    pub fn armed() -> Self {
        CancelFlag(Some(Arc::new(AtomicBool::new(false))))
    }

    /// Requests cancellation. A no-op on an unarmed flag.
    pub fn cancel(&self) {
        if let Some(flag) = &self.0 {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// Returns `true` once [`cancel`](CancelFlag::cancel) has been called
    /// on this flag or any clone of it.
    pub fn is_cancelled(&self) -> bool {
        self.0
            .as_ref()
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
    }

    /// Polls the flag as a checker would.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Cancelled`] once the flag has fired.
    pub fn check(&self) -> Result<(), CheckError> {
        if self.is_cancelled() {
            Err(CheckError::Cancelled)
        } else {
            Ok(())
        }
    }
}

/// Two flags are equal when they share the same atomic (or are both
/// unarmed) — clones compare equal, independently armed flags do not.
impl PartialEq for CancelFlag {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for CancelFlag {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_signal() {
        let a = CancelFlag::armed();
        let b = a.clone();
        assert!(!b.is_cancelled());
        a.cancel();
        assert!(b.is_cancelled());
        assert!(matches!(b.check(), Err(CheckError::Cancelled)));
    }

    #[test]
    fn unarmed_flag_never_fires() {
        let flag = CancelFlag::default();
        flag.cancel();
        assert!(!flag.is_cancelled());
        assert!(flag.check().is_ok());
    }

    #[test]
    fn equality_is_identity() {
        let a = CancelFlag::armed();
        let b = a.clone();
        assert_eq!(a, b);
        assert_ne!(a, CancelFlag::armed());
        assert_eq!(CancelFlag::default(), CancelFlag::default());
        assert_ne!(a, CancelFlag::default());
    }

    #[test]
    fn flag_crosses_threads() {
        let flag = CancelFlag::armed();
        let shared = flag.clone();
        std::thread::scope(|s| {
            s.spawn(move || shared.cancel());
        });
        assert!(flag.is_cancelled());
    }
}
