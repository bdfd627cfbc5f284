//! # icewafl-bench
//!
//! Micro-benchmarks and the serve reference client. The library itself
//! is empty. End-to-end performance is measured by the repo benchmark,
//! a package of its own under `src/bin/benchmark/`; what lives here
//! measures what it does not:
//!
//! * `benches/dq_micro` — expectation validation and the regex engine;
//! * `benches/forecast_micro` — model learn/forecast cost;
//! * `bin/serve_client` — drives sessions against `icewafl serve`.
