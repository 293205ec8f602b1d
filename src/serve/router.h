// Resilient front door for the sharded serving tier — all failure POLICY
// lives here, while serve/shard_set.h is pure data plane.
//
// One Router::Execute call is one client request. The router:
//
//   1. routes the query to its answering view (over the full cube, so all
//      slices agree), and classifies it POINT (filters pin the view's
//      leading dimension → exactly one slice holds the answer) or SCATTER
//      (every slice contributes a partial that is merged and re-topped-K);
//   2. consults the load shedder: level 1 sheds scatter rollups (one slow
//      slice stalls the whole fan-out), level 2 sheds points too — strictly
//      in that priority order, so cheap queries survive longest;
//   3. runs each needed slice through the retry/hedge policy: per-try
//      deadline on virtual latency, primary/replica alternation, a
//      circuit breaker per shard (serve/health.h) gating tries, capped
//      exponential backoff between attempts, all retries and hedges paid
//      from one global RetryBudget so failure amplification is bounded;
//   4. merges scatter partials with MergeSortedAggregate and re-applies
//      top-k — or returns a TYPED failure. The invariant the chaos
//      explorer enforces: a response is bit-correct, a typed error, or an
//      explicit shed. Never a silently wrong answer.
//
// The router is synchronous and thread-safe; every time decision flows
// through the ShardSet's ServeClock, so under a ManualServeClock the full
// retry/hedge/breaker/shed trajectory is a deterministic function of
// (fault plan, request sequence) — which is what lets unit tests pin exact
// breaker transitions with no wall-clock dependence.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "serve/health.h"
#include "serve/latency_histogram.h"
#include "serve/retry_policy.h"
#include "serve/shard_set.h"

namespace sncube {

struct RouterOptions {
  // Per-try deadline on VIRTUAL latency: a try whose measured latency
  // exceeds this is treated as timed out and its answer discarded (safe —
  // discarding a correct answer can never produce a wrong one). 0 disables.
  std::uint64_t per_try_us = 50000;
  // Total tries per slice (1 initial + retries). Attempts alternate
  // primary/replica so a dead primary fails over on the first retry.
  int max_tries = 3;
  // A SUCCESSFUL try at least this slow also tries the other replica and
  // keeps the faster result (sequential hedge; costs one budget token).
  // 0 disables hedging.
  std::uint64_t hedge_delay_us = 0;
  BackoffPolicy backoff;            // wait between tries (virtual sleep)
  double retry_budget_ratio = 0.1;  // tokens earned per admitted request
  double retry_budget_burst = 10.0; // token cap
  BreakerOptions breaker;           // per-shard circuit breaker
  LoadShedder::Options shedder;
  // Probe every shard's reachability once per this many requests (drives
  // open → half-open → closed recovery without client traffic). 0 = off.
  int probe_every = 64;
  // TEST-ONLY escape hatch: false stops the router from pinning
  // Query::from_view across a scatter, letting each slice route its
  // sub-query independently. That re-opens the mixed-view wrong-answer bug
  // (each view is partitioned by its own leading dimension, so partials
  // from different views lose or double count facts) so the serve chaos
  // harness can demonstrate catching a real corruption. Never set this in
  // production paths.
  bool pin_scatter_view = true;
};

enum class RouterOutcome : std::uint8_t {
  kOk,           // answer present and correct
  kFailed,       // deterministic execution error (e.g. no covering view)
  kTimedOut,     // per-try/shard deadlines exhausted the try allowance
  kShed,         // load shedder refused the request (explicit, typed)
  kUnavailable,  // shards down/overloaded and retries/budget exhausted
};

const char* RouterOutcomeName(RouterOutcome o);

struct RouterResult {
  RouterOutcome outcome = RouterOutcome::kFailed;
  std::shared_ptr<const QueryAnswer> answer;  // non-null iff kOk
  bool scatter = false;  // true when the query fanned out to all slices
  int tries = 0;         // shard tries actually issued (incl. hedges)
  // The snapshot epoch this request was pinned to — read once from
  // ShardSet::serving_epoch() at entry and used for routing and EVERY shard
  // try, so a kOk answer is entirely from this one epoch even when a refresh
  // swap lands mid-request.
  std::uint64_t epoch = 0;
};

// Point-in-time router counters, printable as JSON.
struct RouterStatsSnapshot {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t shed = 0;
  std::uint64_t unavailable = 0;
  std::uint64_t point_queries = 0;
  std::uint64_t scatter_queries = 0;
  std::uint64_t retries = 0;           // budget-paid re-tries
  std::uint64_t hedges = 0;            // budget-paid hedge tries
  std::uint64_t hedge_wins = 0;        // hedge returned faster than original
  std::uint64_t budget_exhausted = 0;  // retries denied by the budget
  std::uint64_t probes = 0;
  std::vector<ShardHealth::Snapshot> shard_health;  // index = shard
  LatencySnapshot ok_latency;     // end-to-end, successful requests
  LatencySnapshot error_latency;  // end-to-end, failed/timed-out/unavailable

  std::string ToJson() const;
};

class Router {
 public:
  // `shards` must outlive the router. Policy time runs on shards.clock().
  explicit Router(ShardSet& shards, RouterOptions options = RouterOptions());

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  RouterResult Execute(const Query& query);

  // One reachability probe per shard, feeding the breakers. Runs
  // automatically every options.probe_every requests; callable directly
  // (tests, recovery sweeps).
  void ProbeShards();

  RouterStatsSnapshot Stats() const;

  // Breaker state for `shard` right now (tests and CLI reporting).
  BreakerState ShardBreakerState(int shard) const {
    return health_[static_cast<std::size_t>(shard)]->Snap().state;
  }

  // Raw histograms for bucket-for-bucket metric export (metrics_bridge.cc).
  const LatencyHistogram& ok_latency_histogram() const { return ok_latency_; }
  const LatencyHistogram& error_latency_histogram() const {
    return error_latency_;
  }

 private:
  // Runs one slice sub-query through breaker gating, retries, backoff, and
  // hedging. Returns the final TryResult (kOk or the last typed failure).
  // Every try executes against `epoch` — the pin made at Execute entry.
  TryResult ExecuteSliceWithPolicy(int slice, const Query& sub,
                                   std::uint64_t seq, std::uint64_t epoch,
                                   int* tries);
  // One policy-visible try: breaker-gated target selection plus the
  // per-try deadline. Returns the shard actually tried in *shard_tried
  // (-1 when both holders' breakers refused).
  TryResult TryOnce(int preferred, int other, int slice, const Query& sub,
                    std::uint64_t seq, std::uint64_t epoch, int* shard_tried);

  ShardSet& shards_;
  const RouterOptions options_;
  ServeClock& clock_;
  RetryBudget budget_;
  LoadShedder shedder_;
  std::vector<std::unique_ptr<ShardHealth>> health_;  // index = shard

  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> timed_out_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> point_queries_{0};
  std::atomic<std::uint64_t> scatter_queries_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> hedges_{0};
  std::atomic<std::uint64_t> hedge_wins_{0};
  std::atomic<std::uint64_t> budget_exhausted_{0};
  std::atomic<std::uint64_t> probes_{0};
  LatencyHistogram ok_latency_;
  LatencyHistogram error_latency_;
};

}  // namespace sncube
