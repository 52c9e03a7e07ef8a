//! Benchmark for the DLP simulator: three workloads, host-throughput
//! and paper-fidelity metrics, and a traced run that attributes host
//! time and simulated events to the simulator's layers. See README.md
//! in this directory for the metrics and why each workload exists.

pub mod report;
pub mod spans;
pub mod traced;
pub mod workload;
pub mod writemix;
