// Internal shared state of the cluster runtime. Included only by the net
// library's .cc files — not part of the public API.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/cluster.h"
#include "relation/serialize.h"

namespace sncube {

// Root cause of an aborted Run, as recorded by Shared::MarkFailure.
struct FailureCause {
  int rank = -1;
  std::uint64_t superstep = 0;
  std::uint64_t crossings = 0;  // barrier phases the rank really arrived at
};

// State all ranks synchronize through. The exchange-board cell
// board[src][dst] carries one collective's payload from src to dst. Within a
// superstep every cell has exactly one writer (before barrier A) and one
// mover (after barrier B); between A and B all ranks may concurrently read
// sizes. The barriers provide the required happens-before edges, so no
// per-cell locking is needed.
//
// Failure protocol: a rank whose program throws records itself here (first
// failure wins) together with the number of barrier phases it crossed, and
// withdraws from the barrier, which releases any ranks blocked in a
// collective. After every barrier crossing a rank checks the abort flag and
// throws ClusterAbortedError instead of running on into mismatched
// supersteps — but only for a phase the failed rank never arrived at. A
// phase the failed rank did arrive at completed normally even when the
// failure was recorded before the survivor looked, so where every survivor
// stops is a function of the failure point, not of thread timing. (The
// first recorded failure has the fewest crossings: a later failure at fewer
// crossings would have had to drop out before the first one's last phase
// could complete.) A Shared that witnessed a failure is discarded and
// rebuilt by Cluster::Run, so the cluster stays reusable.
struct Cluster::Shared {
  explicit Shared(int p) : barrier(p), board(p, std::vector<ByteBuffer>(p)),
                           published_times(p, 0.0) {}

  std::barrier<> barrier;
  // board and published_times carry no lock: their single-writer /
  // barrier-separated access pattern (see the protocol above) is exactly
  // the superstep structure, and the std::barrier crossings provide the
  // happens-before edges. Thread-safety analysis cannot model barrier
  // phases, so these two stay convention-checked (and TSan-checked in CI);
  // everything below is machine-checked.
  std::vector<std::vector<ByteBuffer>> board;
  std::vector<double> published_times;

  std::atomic<bool> aborted{false};  // fast-path flag; fields below hold truth
  mutable Mutex failure_mu;
  int failed_rank SNCUBE_GUARDED_BY(failure_mu) = -1;
  std::uint64_t failed_superstep SNCUBE_GUARDED_BY(failure_mu) = 0;
  std::uint64_t failed_crossings SNCUBE_GUARDED_BY(failure_mu) = 0;

  void MarkFailure(int rank, std::uint64_t superstep, std::uint64_t crossings)
      SNCUBE_EXCLUDES(failure_mu) {
    MutexLock lock(failure_mu);
    if (failed_rank != -1) return;  // first failure is the root cause
    failed_rank = rank;
    failed_superstep = superstep;
    failed_crossings = crossings;
    aborted.store(true, std::memory_order_release);
  }

  // Reads the root cause for the abort report. Taking failure_mu (rather
  // than relying on "written once before the release store" reasoning)
  // keeps the fields formally guarded by one capability the analysis can
  // check; the lock is uncontended by construction once `aborted` is set.
  FailureCause Cause() const SNCUBE_EXCLUDES(failure_mu) {
    MutexLock lock(failure_mu);
    return FailureCause{failed_rank, failed_superstep, failed_crossings};
  }

  // Called by surviving ranks right after crossing their `crossed`-th
  // barrier phase. The acquire load pairs with MarkFailure's release store
  // and keeps the no-failure hot path lock-free; the failure path re-reads
  // the cause under the lock.
  void ThrowIfAborted(std::uint64_t crossed) const {
    if (!aborted.load(std::memory_order_acquire)) return;
    const FailureCause cause = Cause();
    if (cause.crossings >= crossed) return;  // the failed rank was there
    throw ClusterAbortedError(
        "cluster aborted: rank " + std::to_string(cause.rank) +
            " failed at superstep " + std::to_string(cause.superstep),
        cause.rank, cause.superstep);
  }
};

}  // namespace sncube
