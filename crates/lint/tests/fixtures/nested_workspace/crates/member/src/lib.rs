//! A member crate of the linted workspace: its violation is reported.

#![forbid(unsafe_code)]

pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}
