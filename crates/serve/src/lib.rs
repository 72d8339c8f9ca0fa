//! # sjpl-serve — the live selectivity-estimation daemon
//!
//! The paper's pitch for BOPS is that the fitted power law is a *kept
//! statistic*: once `PC(r) = K·r^α` is stored, every selectivity question
//! is O(1) arithmetic (§4.3) — which only pays off inside a long-running
//! process that answers such questions continuously. This crate is that
//! process: a dependency-free HTTP/1.1 daemon (hand-rolled over
//! `std::net::TcpListener`, same no-registry trade as `sjpl_obs::json`)
//! serving a [`sjpl_core::LawCatalog`] with full observability.
//!
//! ## Endpoints
//!
//! | Endpoint | Answer |
//! |---|---|
//! | `POST /estimate` | `{"law", "radius"}` → pair count, selectivity, and the law's provenance (K, α, R², fit window, set sizes) |
//! | `GET /metrics` | the live `sjpl-obs` recorder in Prometheus text exposition format 0.0.4 |
//! | `GET /snapshot` | the recorder as schema-3 JSON |
//! | `GET /timeline` | the flight-recorder timeline as a Chrome trace |
//! | `GET /healthz` | liveness (always `200 ok`) |
//! | `GET /readyz` | readiness (`503` until the catalog has laws) |
//! | `GET /alerts` | every alert rule's state machine as JSON |
//! | `GET /query?expr=...` | one [`sjpl_obs::tsdb`] query (rate/avg/max/quantile/latest) |
//!
//! Connections are HTTP/1.1 keep-alive (honoring `Connection:` headers
//! and the HTTP/1.0 default-close rule); a worker serves requests off one
//! connection until the peer closes, the idle window expires, or the
//! server stops.
//!
//! ## Request-lifecycle observability
//!
//! Every request gets a sequential id (echoed as the `x-request-id`
//! header and in the `/estimate` body) and `serve.read` / `serve.request`
//! / `serve.write` spans, so the `/timeline` trace shows each request's
//! full lifecycle. First-byte-to-last-write latency lands in a
//! per-endpoint × status-class histogram family
//! (`serve.endpoint.<endpoint>.<class>`); `serve.requests`,
//! `serve.errors` and `serve.responses.<class>` counters plus the
//! race-free `serve.inflight` / `serve.connections` gauges feed
//! `/metrics`. Requests slower than a configurable threshold are counted
//! (`serve.slow_requests`) and pinned into the flight-recorder timeline,
//! and an optional JSONL access log records every request.
//!
//! ## SLOs
//!
//! Declarative per-endpoint SLOs ([`slo::SloSpec`], CLI syntax
//! `/estimate=2ms@p99,err<0.1%`) are evaluated in one place: each gets a
//! built-in multi-window burn-rate alert rule, which once per
//! [`ServeConfig::metrics_interval`] publishes windowed
//! `serve.slo.compliance.<endpoint>`, `serve.slo.burn_rate.<endpoint>`,
//! `serve.slo.breached.<endpoint>` gauges and breach counters. Endpoint
//! labels come from one route table ([`endpoint_labels`]).
//!
//! ## Telemetry pipeline
//!
//! A background scraper thread snapshots the recorder every
//! [`ServeConfig::metrics_interval`] into a fixed-capacity
//! [`sjpl_obs::tsdb::Tsdb`] ring store (memory bound: capacity × series
//! samples), queryable over `GET /query`. The [`alerts::AlertEngine`]
//! evaluates declarative rules (`--alert 'name: expr op threshold for
//! 30s'`) plus built-in multi-window SLO burn-rate and drift rules
//! on every scrape tick; alert states are served on `GET /alerts`, as
//! `ALERTS{alertname,state}` series on `/metrics`, and in the `/snapshot`
//! `alerts` section. `sjpl dash` is the human consumer. A tick and a
//! `/metrics` scrape each take one aggregate recorder read (no timeline
//! events); only `/snapshot` and `/timeline` copy the flight-recorder
//! ring.
//!
//! ## Drift monitoring
//!
//! A stored law can silently go stale as data changes. The [`drift`]
//! monitor re-checks each probed law against a ground-truth oracle
//! (typically the paper's §4.3 sampling trick — an exact join over a
//! fixed sample scaled back up) and publishes the rolling mean error as
//! `serve.drift.rel_error.<law>`. Deciding is one place: the built-in
//! `drift-<law>` alert rule compares that mean with the configured budget
//! on every scraper tick and writes `serve.drift.breached.<law>` (1
//! exactly while the rule is pending or firing), the
//! `serve.drift.breaches` counter and the `serve.drift.breach` event.
//! `/metrics` therefore surfaces estimator *trustworthiness*, not just
//! traffic.
//!
//! ## Overload protection & failure containment
//!
//! Every request passes bounded admission control before its handler
//! runs: past [`ServeConfig::max_inflight`] concurrent requests (plus a
//! short bounded queue), the server sheds with `429 + Retry-After`.
//! Shedding is tiered — debug/observability endpoints (`/snapshot`,
//! `/timeline`, `/debug/*`) shed first, `/estimate` and `/metrics` queue
//! briefly, health probes are always admitted. Requests can carry a
//! deadline budget (`X-Deadline-Ms` header or [`ServeConfig::deadline_ms`])
//! enforced at dispatch, in the queue, and before expensive work
//! (`503 + Retry-After`). Handlers and drift ticks run under
//! `catch_unwind`, so a panic costs one `500` (counted in `serve.panics`)
//! instead of a worker thread or the drift oracle. A seeded [`fault`] plan
//! injects deterministic latency / resets / torn writes / panics for chaos
//! testing, with exact-count observability.
//!
//! ## Shutdown
//!
//! [`Server::begin_drain`] flips `/readyz` to `503 + Retry-After` so load
//! balancers stop routing; [`Server::shutdown`] does that, optionally
//! waits out [`ServeConfig::drain_grace`], then raises the daemon's one
//! stop flag, wakes every worker blocked in `accept`, and joins them and
//! the scraper and drift threads; workers complete their in-flight
//! request first, so the join doubles as the connection drain.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alerts;
pub mod drift;
pub mod fault;
pub mod http;
mod server;
pub mod slo;

pub use alerts::{AlertEngine, AlertRule};
pub use drift::{DriftConfig, DriftProbe};
pub use fault::FaultPlan;
pub use server::{endpoint_labels, ServeConfig, Server};
pub use slo::SloSpec;
