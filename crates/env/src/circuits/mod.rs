//! Benchmark circuits: the two-stage opamp, the LDO, the ICO, and
//! synthetic landscapes for fast agent tests. The opamp is a sizing deck
//! compiled by [`crate::netbench`]; the LDO and the netlist benches share
//! one MNA evaluator (`pool`).

pub mod ico;
pub mod ldo;
pub mod opamp;
pub(crate) mod pool;
pub mod synthetic;
