#include "net/cluster.h"

#include <algorithm>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "common/status.h"
#include "exec/task_pool.h"
#include "net/internal.h"

namespace sncube {

Cluster::Cluster(int p, CostParams cost, DiskParams disk)
    : p_(p), cost_(cost), disk_params_(disk) {
  SNCUBE_CHECK_MSG(p >= 1, "cluster needs at least one processor");
  shared_ = std::make_unique<Shared>(p);
  stats_.resize(p);
}

Cluster::~Cluster() = default;

void Cluster::set_threads_per_rank(int t) {
  SNCUBE_CHECK_MSG(t >= 1, "threads_per_rank must be >= 1");
  threads_per_rank_ = t;
}

void Cluster::Run(const std::function<void(Comm&)>& program) {
  last_failure_.reset();
  std::vector<std::unique_ptr<Comm>> comms;
  comms.reserve(p_);
  for (int r = 0; r < p_; ++r) {
    // Every Run starts its Comm — and therefore all metrics, phase stats,
    // disk counters, and the simulated clock — from zero (run-scoped
    // policy; see cluster.h).
    comms.emplace_back(new Comm(*this, r, p_, cost_, disk_params_,
                                fault_plan_.empty() ? nullptr : &fault_plan_,
                                threads_per_rank_));
  }

  // One trace recorder per rank when tracing is on; each is confined to its
  // rank's thread below and only harvested after the join (the jthread join
  // is the happens-before edge that makes the harvest race-free).
  std::vector<std::unique_ptr<obs::TraceRecorder>> recorders;
  if (trace_sink_ != nullptr) {
    recorders.reserve(p_);
    for (int r = 0; r < p_; ++r) {
      recorders.emplace_back(
          std::make_unique<obs::TraceRecorder>(r, comms[r].get()));
    }
  }

  std::vector<std::exception_ptr> errors(p_);
  {
    std::vector<std::jthread> threads;
    threads.reserve(p_);
    for (int r = 0; r < p_; ++r) {
      threads.emplace_back([&, r] {
        obs::ThreadRecorderScope trace_scope(
            recorders.empty() ? nullptr : recorders[r].get());
        // The rank's intra-rank exec pool, installed thread-locally exactly
        // like the trace recorder; kernels reach it via exec::CurrentPool().
        // Declared before the scope so the scope unwinds first, and the
        // pool's workers are joined before the rank thread exits.
        std::unique_ptr<exec::TaskPool> pool;
        if (threads_per_rank_ > 1) {
          pool = std::make_unique<exec::TaskPool>(threads_per_rank_);
        }
        exec::PoolScope pool_scope(pool.get());
        try {
          program(*comms[r]);
          // Fold disk blocks accrued after the last collective into the
          // final clock; they would otherwise vanish from sim_time.
          comms[r]->FoldDisk(comms[r]->stats_.phases[comms[r]->phase_]);
        } catch (const ClusterAbortedError&) {
          // Secondary casualty: this rank was told about someone else's
          // failure. Record it, but never as the root cause.
          errors[r] = std::current_exception();
          shared_->barrier.arrive_and_drop();
        } catch (...) {
          errors[r] = std::current_exception();
          // Publish the root cause (first failure wins) BEFORE withdrawing,
          // so any rank the withdrawal releases sees it; then withdraw from
          // all future barriers so surviving ranks don't deadlock. They
          // observe the abort flag after crossing the first barrier phase
          // this rank missed and unwind with a typed ClusterAbortedError.
          shared_->MarkFailure(r, comms[r]->supersteps_, comms[r]->crossings_);
          shared_->barrier.arrive_and_drop();
        }
      });
    }
  }

  bool any_error = false;
  for (const auto& e : errors) any_error |= (e != nullptr);
  if (!any_error) {
    for (int r = 0; r < p_; ++r) {
      comms[r]->stats_.sim_time_s = comms[r]->local_time_;
      stats_[r] = comms[r]->stats_;
    }
    if (trace_sink_ != nullptr) {
      for (int r = 0; r < p_; ++r) trace_sink_->Absorb(recorders[r]->Finish());
    }
    return;
  }
  // Aborted Run: recorders are dropped without Absorb — trace output, like
  // stats(), only ever describes successful Runs.

  // Aborted Run: identify the root cause, preserve flagged partial metrics
  // for forensics, and re-arm the shared state (arrive_and_drop permanently
  // lowered the old barrier's count) so the cluster stays reusable. stats_
  // is deliberately left at its pre-Run value — failed attempts must not
  // pollute SimTimeSeconds()/BytesSent() of later successful Runs.
  FailureReport report;
  const FailureCause cause = shared_->Cause();
  report.failed_rank = cause.rank;
  report.superstep = cause.superstep;
  if (report.failed_rank < 0) {
    // Only ClusterAbortedError was thrown (a program rethrew one by hand);
    // fall back to the lowest-ranked thrower.
    for (int r = 0; r < p_; ++r) {
      if (errors[r] != nullptr) {
        report.failed_rank = r;
        break;
      }
    }
  }
  try {
    std::rethrow_exception(errors[report.failed_rank]);
  } catch (const std::exception& e) {
    report.message = e.what();
  } catch (...) {
    report.message = "unknown exception";
  }
  for (int r = 0; r < p_; ++r) {
    RankStats partial = comms[r]->stats_;
    partial.sim_time_s = comms[r]->local_time_;
    partial.failed = errors[r] != nullptr;
    report.partial_stats.push_back(std::move(partial));
  }
  shared_ = std::make_unique<Shared>(p_);

  const int failed_rank = report.failed_rank;
  const std::uint64_t superstep = report.superstep;
  std::string message = "rank " + std::to_string(failed_rank) +
                        " failed at superstep " + std::to_string(superstep) +
                        ": " + report.message;
  last_failure_ = std::move(report);
  throw ClusterAbortedError(std::move(message), failed_rank, superstep);
}

double Cluster::SimTimeSeconds() const {
  double t = 0;
  for (const auto& rs : stats_) t = std::max(t, rs.sim_time_s);
  return t;
}

std::uint64_t Cluster::BytesSent(const std::string& prefix) const {
  std::uint64_t total = 0;
  for (const auto& rs : stats_) {
    for (const auto& [name, ps] : rs.phases) {
      if (name.rfind(prefix, 0) == 0) total += ps.bytes_sent;
    }
  }
  return total;
}

void Cluster::ResetStats() {
  for (auto& rs : stats_) rs = RankStats{};
}

}  // namespace sncube
