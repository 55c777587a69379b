//! Shared helpers for the `ompdart-bench` benchmark targets.

pub mod alloc_counter;
