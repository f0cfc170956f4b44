//! Leveled stderr logging, off by default.
//!
//! The level is read once from the `HLF_LOG` environment variable
//! (`error`, `warn`, `info`, `debug`, `trace`, or `off`/unset) and
//! cached for the life of the process. With logging off, a log call
//! is one relaxed load and a branch — cheap enough to leave in
//! consensus hot paths.
//!
//! ```
//! hlf_obs::info!("replica {} installed regency {}", 2, 7);
//! hlf_obs::debug!("tentative delivery rolled back at cid {}", 41);
//! ```

use std::sync::OnceLock;

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or safety-relevant events.
    Error = 1,
    /// Suspicious but tolerated events (timeouts, retransmits).
    Warn = 2,
    /// Rare state changes worth seeing in a quiet log (view changes).
    Info = 3,
    /// Per-decision noise (deliveries, rollbacks, state transfer).
    Debug = 4,
    /// Per-message noise.
    Trace = 5,
}

impl Level {
    /// Fixed-width lowercase name for log lines.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }
}

static MAX_LEVEL: OnceLock<u8> = OnceLock::new();

fn parse(value: Option<&str>) -> u8 {
    match value.map(|v| v.trim().to_ascii_lowercase()).as_deref() {
        Some("error") | Some("1") => 1,
        Some("warn") | Some("2") => 2,
        Some("info") | Some("3") => 3,
        Some("debug") | Some("4") => 4,
        Some("trace") | Some("5") => 5,
        // Unset, empty, "off", or anything unrecognized: silent.
        _ => 0,
    }
}

/// The maximum enabled level (0 = logging off), from `HLF_LOG`.
pub fn max_level() -> u8 {
    *MAX_LEVEL.get_or_init(|| parse(std::env::var("HLF_LOG").ok().as_deref()))
}

/// Whether a message at `level` should be emitted.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= max_level()
}

/// Logs at an explicit [`Level`] with `format!` syntax.
#[macro_export]
macro_rules! log {
    ($level:expr, $($arg:tt)*) => {{
        let level: $crate::Level = $level;
        if $crate::logging::enabled(level) {
            eprintln!(
                "[hlf {:5} {}] {}",
                level.as_str(),
                module_path!(),
                format_args!($($arg)*)
            );
        }
    }};
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Error, $($arg)*) };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Warn, $($arg)*) };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Info, $($arg)*) };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Debug, $($arg)*) };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($arg:tt)*) => { $crate::log!($crate::Level::Trace, $($arg)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_levels() {
        assert_eq!(parse(None), 0);
        assert_eq!(parse(Some("")), 0);
        assert_eq!(parse(Some("off")), 0);
        assert_eq!(parse(Some("nonsense")), 0);
        assert_eq!(parse(Some("error")), 1);
        assert_eq!(parse(Some("WARN")), 2);
        assert_eq!(parse(Some(" info ")), 3);
        assert_eq!(parse(Some("debug")), 4);
        assert_eq!(parse(Some("trace")), 5);
        assert_eq!(parse(Some("3")), 3);
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Debug < Level::Trace);
    }

    #[test]
    fn macros_compile_and_run_silently() {
        // Level is process-global; don't pin it here, just exercise
        // the macro paths (silent unless the env enables them).
        crate::log!(Level::Info, "value = {}", 42);
        crate::error!("error path {}", 1);
        crate::warn!("warn path");
        crate::info!("info path");
        crate::debug!("debug path");
        crate::trace!("trace path");
    }
}
