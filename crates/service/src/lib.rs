//! Resident simulation service for the backfilling testbed.
//!
//! Sweeping the paper's scenario grid re-pays trace generation and
//! simulation on every CLI invocation. This crate keeps a simulator
//! resident instead: the `bfsimd` daemon accepts
//! [`RunConfig`](backfill_sim::RunConfig)s as
//! JSON lines over localhost TCP, simulates them on the connection's
//! own thread under a bounded permit pool, and memoizes every completed report in a content-addressed
//! cache — so any config the daemon has seen before is answered in
//! microseconds, byte-identical to the fresh run.
//!
//! The service layer is built to survive a hostile world — see
//! DESIGN.md §13. Sockets carry deadlines, oversized frames are shed
//! with structured errors, a full queue answers `Busy` instead of
//! blocking, a panicking run leaves the daemon serving, the cache can
//! journal to disk and replay after a crash, and a deterministic
//! [`fault`] plan can inject panics / drops / corruption / latency for
//! reproducible chaos tests.
//!
//! Crate map:
//!
//! * [`protocol`] — request/response message types (shared serde data);
//! * [`pool`] — permit gate bounding concurrent simulations: shedding
//!   once `queue_cap` submits wait, per-run panic isolation (the pool's
//!   `catch_unwind` plus `backfill_sim::run_cell`'s inner boundary);
//! * [`cache`] — result memoization keyed by canonical config JSON,
//!   optionally crash-recoverable via an append-only JSONL journal;
//! * [`fault`] — seedable deterministic fault injection plans;
//! * [`server`] — accept loop, connection handlers, hardening,
//!   graceful drain;
//! * [`client`] — blocking [`Client`] plus the deadline/retry-wrapped
//!   [`ResilientClient`] used by `bfsim submit|stats|metrics|health`.
//!
//! ```no_run
//! use service::{Client, Server, ServiceConfig};
//! use backfill_sim::{RunConfig, Scenario, SchedulerKind, TraceSource};
//! use sched::Policy;
//!
//! let handle = Server::start("127.0.0.1:0", ServiceConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let config = RunConfig {
//!     scenario: Scenario::high_load(TraceSource::Ctc { jobs: 500, seed: 42 }),
//!     kind: SchedulerKind::Easy,
//!     policy: Policy::Sjf,
//! };
//! let first = client.submit(&config).unwrap(); // simulated
//! let again = client.submit(&config).unwrap(); // served from cache
//! assert!(!first.cached && again.cached);
//! client.shutdown().unwrap();
//! handle.join();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod fault;
pub mod pool;
pub mod protocol;
pub mod server;
pub mod supervisor;
pub mod tracecache;

pub use cache::{JournalReplay, Lookup, ResultCache};
pub use client::{Backoff, Client, ClientError, ClientOptions, ResilientClient, RetryPolicy};
pub use fault::{FaultActions, FaultInjector, FaultPlan};
pub use pool::{Pool, Ran, RunError};
pub use protocol::{
    Capabilities, HealthReport, JournalHealth, Request, Response, RunReply, RunReport,
    ServiceStats, TraceContext, WireSpan, PROTO_VERSION,
};
pub use server::{Server, ServerHandle, ServiceConfig};
pub use supervisor::{
    Breaker, BreakerPolicy, ChildStatus, ChildView, RestartDecision, Supervisor, SupervisorReport,
    SupervisorSpec,
};
