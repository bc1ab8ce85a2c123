//! End-to-end benchmark of the speculation-friendly tree stack.
//!
//! The benchmark drives the library crates from outside, through their
//! public constructors, handles and stats snapshots; see `README.md` for the
//! workloads and metrics.

pub mod bench;
pub mod gen;
pub mod hist;
pub mod procfs;
pub mod sys;
pub mod trace;
