//! Process-wide serving configuration: the `ASDR_STORE_DIR` environment
//! variable.
//!
//! It is read **once per process** (the serving hot path must never call
//! `getenv` — an unsynchronized `setenv` elsewhere would race it),
//! mirroring how the frame engine treats `ASDR_WORKERS`, and an explicit
//! builder setting ([`ModelStoreBuilder::dir`] or
//! [`in_memory_only`](crate::store::ModelStoreBuilder::in_memory_only))
//! always wins over it.
//!
//! [`ModelStoreBuilder::dir`]: crate::store::ModelStoreBuilder::dir

use std::path::PathBuf;
use std::sync::OnceLock;

/// `ASDR_STORE_DIR`: the on-disk checkpoint directory a [`ModelStore`]
/// persists fits to when the builder does not set one. Empty or unset means
/// no persistence. Read once per process.
///
/// [`ModelStore`]: crate::store::ModelStore
pub fn env_store_dir() -> Option<&'static PathBuf> {
    static DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
    DIR.get_or_init(|| parse_store_dir(std::env::var("ASDR_STORE_DIR").ok().as_deref())).as_ref()
}

/// Default worker-pool size when the builder does not set one: the
/// detected parallelism.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Parses an `ASDR_STORE_DIR` value; empty means "no persistence".
fn parse_store_dir(raw: Option<&str>) -> Option<PathBuf> {
    raw.filter(|s| !s.is_empty()).map(PathBuf::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_dir_parsing_treats_empty_as_unset() {
        assert_eq!(parse_store_dir(Some("/tmp/ckpts")), Some(PathBuf::from("/tmp/ckpts")));
        assert_eq!(parse_store_dir(Some("")), None);
        assert_eq!(parse_store_dir(None), None);
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }
}
