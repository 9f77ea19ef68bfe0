//! The repository's benchmark, measured from outside: four pinned cells
//! ([`cells`]), each repetition timed through the simulator's public
//! functions ([`rep`]), reduced with noise-robust estimators
//! ([`estimate`]). See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod compare;
pub mod estimate;
pub mod fixtures;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod rep;
pub mod spans;
pub mod traced;
