// Comm: one rank's endpoint into the simulated shared-nothing cluster.
//
// The interface mirrors the MPI subset the paper's implementation needs —
// AllToAllv is the h-relation (MPI_Alltoallv), plus Broadcast, Gather,
// AllGather, AllReduce and Barrier. All operations are collective and every
// rank of the cluster must call them in the same order (SPMD discipline,
// as with MPI). Data crosses ranks only as serialized bytes; ranks share no
// mutable structures, so the shared-nothing model is enforced by the type
// system, not by convention.
//
// Thread-safety contract: a Comm endpoint is confined to its rank's thread
// — nothing in this class is locked, and nothing needs to be. All
// cross-rank state lives in Cluster::Shared (net/internal.h), where the
// failure fields are mutex-guarded and machine-checked via the
// SNCUBE_GUARDED_BY annotations, and the exchange board follows the
// barrier-separated single-writer protocol documented there.
//
// Cost accounting (the BSP clock): between collectives a rank accrues local
// CPU seconds (ChargeScanRecords / ChargeSortRecords / ChargeCpu) and disk
// blocks (via its DiskModel). Each collective is a superstep boundary: the
// simulated clock advances to max over ranks of the local clocks, plus a
// latency + bytes/bandwidth term for the communication itself. Because the
// counts are measured from the real computation, simulated times inherit the
// genuine balance/imbalance of the algorithm.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/disk.h"
#include "net/fault.h"
#include "net/metrics.h"
#include "net/params.h"
#include "obs/trace.h"
#include "relation/serialize.h"

namespace sncube {

class Cluster;

// Comm doubles as the trace clock (obs::SimClockSource): spans recorded on
// a rank thread are stamped with that rank's simulated local time, so traces
// are deterministic and wall-clock-free like every other figure input.
class Comm : public obs::SimClockSource {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }
  const CostParams& cost() const { return cost_; }

  // ---- local cost accrual -------------------------------------------------
  // Attribute subsequent costs to this phase label (metrics reporting).
  void SetPhase(std::string phase);
  const std::string& phase() const { return phase_; }

  void ChargeCpu(double seconds);
  // A linear aggregation scan touching n records.
  void ChargeScanRecords(std::uint64_t n);
  // An in-memory sort of n records (n·log2(n) comparison cost).
  void ChargeSortRecords(std::uint64_t n);

  // Intra-rank exec threads the span-based cost model divides parallel-
  // region work across (>= 1; configured via Cluster::set_threads_per_rank).
  int threads_per_rank() const { return threads_per_rank_; }

  // Charges a parallel region that executed `work_seconds` of total CPU on
  // the rank's exec pool. The BSP clock advances by the critical path only,
  // the Brent bound span work/threads_per_rank, which is exact for the
  // balanced divide-and-conquer kernels in src/exec. Work and span both
  // land in the phase stats (PhaseStats::par_work_s / par_span_s) so
  // breakdowns can show parallel efficiency. With threads_per_rank == 1
  // this is exactly ChargeCpu(work_seconds) — bit-identical serial
  // accounting.
  void ChargeParallelCpu(double work_seconds);
  // Parallel-region variant of ChargeSortRecords: same n·log2(n) work,
  // charged at span = work / threads_per_rank.
  void ChargeSortRecordsParallel(std::uint64_t n);

  // This rank's local disk. Block transfers charged here are converted to
  // simulated seconds at the next collective.
  DiskModel& disk() { return disk_; }

  double LocalTime() const { return local_time_; }

  // The simulated clock as the tracer sees it: local time plus disk blocks
  // accrued since the last fold (so a span around pure disk work has a
  // nonzero duration even before the next collective charges it).
  double SimNowSeconds() const;

  // obs::SimClockSource.
  double TraceNowSeconds() const override { return SimNowSeconds(); }
  std::uint64_t TraceSuperstep() const override { return supersteps_; }

  // ---- collectives (superstep boundaries) ---------------------------------
  // The h-relation: send[k] goes to rank k; returns the p buffers received
  // (index = source rank). send.size() must equal size().
  std::vector<ByteBuffer> AllToAllv(std::vector<ByteBuffer> send);

  // Root's msg is delivered to every rank (root included).
  ByteBuffer Broadcast(int root, ByteBuffer msg);

  // Every rank contributes msg; root receives all p buffers (by source
  // rank), others receive an empty vector.
  std::vector<ByteBuffer> Gather(int root, ByteBuffer msg);

  // Every rank receives all p contributions.
  std::vector<ByteBuffer> AllGather(ByteBuffer msg);

  std::uint64_t AllReduceSum(std::uint64_t v);
  std::uint64_t AllReduceMax(std::uint64_t v);
  double AllReduceMax(double v);

  void Barrier();

  // Collectives this rank has entered in the current Run (the superstep
  // index the fault injector and abort reports count in).
  std::uint64_t supersteps() const { return supersteps_; }

  // Metrics accumulated so far for this rank in this Run (phase → stats).
  const RankStats& stats() const { return stats_; }

 private:
  friend class Cluster;
  Comm(Cluster& cluster, int rank, int size, const CostParams& cost,
       DiskParams disk_params, const FaultPlan* fault_plan,
       int threads_per_rank);

  // Converts disk blocks accrued since the last fold into simulated seconds
  // on the local clock, attributed to `ps`.
  void FoldDisk(PhaseStats& ps);
  // Entry gate of every collective: runs the fault injector's kill check,
  // counts the superstep, folds accrued disk blocks into the local clock,
  // publishes the local clock, and stages outgoing data. Returns a reference
  // to current phase stats.
  PhaseStats& SyncPrologue();
  // Advances every rank's clock identically given the published byte counts.
  void AdvanceClock(PhaseStats& ps, std::uint64_t bytes_out,
                    std::uint64_t bytes_in, std::uint64_t msgs,
                    double latency_multiplier);
  // Barrier crossing that propagates cluster aborts: throws a typed
  // ClusterAbortedError when some rank failed instead of letting this rank
  // run on into mismatched supersteps.
  void ArriveAndCheck();
  // Hands the just-completed collective's traffic to this thread's trace
  // recorder, if one is installed (one TLS load + branch otherwise).
  void TraceComm(std::uint64_t bytes_out, std::uint64_t bytes_in);

  Cluster& cluster_;
  int rank_;
  int size_;
  CostParams cost_;
  DiskModel disk_;
  std::unique_ptr<FaultInjector> fault_;  // null when no plan is active
  int threads_per_rank_ = 1;              // intra-rank exec pool width
  double slowdown_ = 1.0;                 // straggler multiplier (>= 1)
  std::uint64_t supersteps_ = 0;          // collectives entered this Run
  std::uint64_t crossings_ = 0;           // barrier phases crossed this Run
  std::uint64_t charged_blocks_ = 0;  // blocks already folded into the clock
  double local_time_ = 0;
  std::string phase_ = "default";
  RankStats stats_;
};

}  // namespace sncube
