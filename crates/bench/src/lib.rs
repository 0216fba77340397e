//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (one binary per table or figure under
//! `src/bin/`; the instance families are documented in [`instances`]).

pub mod instances;
pub mod report;
pub mod runner;
pub mod table;
