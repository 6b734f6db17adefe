//! Nested-workspace fixture: a clean scheduler crate root.

#![forbid(unsafe_code)]

pub fn double(x: u32) -> u32 {
    x * 2
}
