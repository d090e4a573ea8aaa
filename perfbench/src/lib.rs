//! End-to-end and per-layer benchmark of the M5 simulation pipeline.
//!
//! [`harness`] builds the four workloads and drives them through the
//! chunked run pipeline; [`spans`] records the traced run's per-call
//! spans and computes layer self times; [`report`] runs repetitions in
//! child processes and aggregates them into the benchmark's result line.

#![forbid(unsafe_code)]

pub mod canary;
pub mod harness;
pub mod report;
pub mod spans;
