#include "net/comm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/status.h"
#include "net/internal.h"
#include "net/wire.h"

namespace sncube {
namespace {

// Latency hops of a tree-structured collective on p nodes.
double TreeDepth(int p) {
  return p <= 1 ? 0.0 : std::ceil(std::log2(static_cast<double>(p)));
}

}  // namespace

Comm::Comm(Cluster& cluster, int rank, int size, const CostParams& cost,
           DiskParams disk_params, const FaultPlan* fault_plan,
           int threads_per_rank)
    : cluster_(cluster),
      rank_(rank),
      size_(size),
      cost_(cost),
      disk_(disk_params),
      threads_per_rank_(std::max(1, threads_per_rank)) {
  if (fault_plan != nullptr) {
    fault_ = std::make_unique<FaultInjector>(*fault_plan, rank);
    slowdown_ = fault_->slowdown();
    disk_.set_fault_hook(fault_.get());
  }
}

void Comm::SetPhase(std::string phase) {
  // Fold disk blocks accrued so far into the phase that caused them; without
  // this they would be attributed to whichever phase runs the next
  // collective.
  FoldDisk(stats_.phases[phase_]);
  phase_ = std::move(phase);
}

void Comm::FoldDisk(PhaseStats& ps) {
  const std::uint64_t blocks = disk_.blocks_total();
  const std::uint64_t delta = blocks - charged_blocks_;
  charged_blocks_ = blocks;
  if (delta > 0) {
    // A straggler's disk is slower by the same factor as its CPU.
    const double t =
        static_cast<double>(delta) * cost_.disk_block_s * slowdown_;
    local_time_ += t;
    ps.disk_s += t;
    ps.blocks += delta;
  }
}

void Comm::ChargeCpu(double seconds) {
  seconds *= slowdown_;
  local_time_ += seconds;
  stats_.phases[phase_].cpu_s += seconds;
}

void Comm::ChargeScanRecords(std::uint64_t n) {
  ChargeCpu(static_cast<double>(n) * cost_.cpu_scan_record_s);
}

void Comm::ChargeSortRecords(std::uint64_t n) {
  if (n < 2) return;
  const double levels = std::log2(static_cast<double>(n));
  ChargeCpu(static_cast<double>(n) * levels * cost_.cpu_sort_record_s);
}

void Comm::ChargeParallelCpu(double work_seconds) {
  // Brent bound span; division by 1.0 is exact, so with one thread this
  // charges bit-identical seconds to ChargeCpu(work_seconds).
  const double span_seconds =
      work_seconds / static_cast<double>(threads_per_rank_);
  // Work/span accounting only once a pool actually exists: a serial run's
  // phase stats (and every table derived from them) stay exactly as they
  // were before the exec runtime.
  if (threads_per_rank_ > 1) {
    PhaseStats& ps = stats_.phases[phase_];
    ps.par_work_s += work_seconds * slowdown_;
    ps.par_span_s += span_seconds * slowdown_;
  }
  ChargeCpu(span_seconds);
}

void Comm::ChargeSortRecordsParallel(std::uint64_t n) {
  if (n < 2) return;
  const double levels = std::log2(static_cast<double>(n));
  ChargeParallelCpu(static_cast<double>(n) * levels * cost_.cpu_sort_record_s);
}

double Comm::SimNowSeconds() const {
  const std::uint64_t pending = disk_.blocks_total() - charged_blocks_;
  return local_time_ +
         static_cast<double>(pending) * cost_.disk_block_s * slowdown_;
}

void Comm::TraceComm(std::uint64_t bytes_out, std::uint64_t bytes_in) {
  obs::TraceRecorder* rec = obs::CurrentRecorder();
  if (rec != nullptr) rec->RecordComm(bytes_out, bytes_in);
}

PhaseStats& Comm::SyncPrologue() {
  // The kill check runs before anything is staged or published: a killed
  // rank never arrives at this collective's barrier, exactly like a process
  // dying on entry to an MPI call.
  if (fault_ != nullptr) fault_->OnCollective(supersteps_);
  ++supersteps_;
  ++stats_.supersteps;
  PhaseStats& ps = stats_.phases[phase_];
  FoldDisk(ps);
  cluster_.shared_->published_times[rank_] = local_time_;
  return ps;
}

void Comm::ArriveAndCheck() {
  cluster_.shared_->barrier.arrive_and_wait();
  cluster_.shared_->ThrowIfAborted(++crossings_);
}

void Comm::AdvanceClock(PhaseStats& ps, std::uint64_t bytes_out,
                        std::uint64_t bytes_in, std::uint64_t msgs,
                        double latency_multiplier) {
  // t_base: slowest rank's clock at entry (everyone published in prologue).
  double t_base = 0;
  for (double t : cluster_.shared_->published_times) t_base = std::max(t_base, t);

  // h: the h-relation bottleneck — the largest per-rank in- or out-volume,
  // computed identically by every rank from the (stable) exchange board.
  std::uint64_t h = 0;
  const auto& board = cluster_.shared_->board;
  for (int r = 0; r < size_; ++r) {
    std::uint64_t out = 0;
    std::uint64_t in = 0;
    for (int k = 0; k < size_; ++k) {
      if (k == r) continue;  // local delivery is free
      out += board[r][k].size();
      in += board[k][r].size();
    }
    h = std::max({h, out, in});
  }

  const double comm = latency_multiplier * cost_.net_latency_s +
                      static_cast<double>(h) * cost_.net_byte_s;
  const double t_new = t_base + comm;
  ps.net_s += t_new - local_time_;
  local_time_ = t_new;
  ps.bytes_sent += bytes_out;
  ps.bytes_received += bytes_in;
  ps.messages += msgs;
  TraceComm(bytes_out, bytes_in);
}

std::vector<ByteBuffer> Comm::AllToAllv(std::vector<ByteBuffer> send) {
  SNCUBE_CHECK(static_cast<int>(send.size()) == size_);
  PhaseStats& ps = SyncPrologue();
  auto& board = cluster_.shared_->board;
  for (int dst = 0; dst < size_; ++dst) {
    // Everything that crosses the wire carries the integrity trailer; an
    // empty buffer means "no message" and self-delivery never leaves the
    // node, so neither is framed.
    if (dst != rank_ && !send[dst].empty()) SealFrame(send[dst]);
    board[rank_][dst] = std::move(send[dst]);
  }
  ArriveAndCheck();  // A: board fully staged

  // Size-scan phase: cells are stable, everyone reads sizes concurrently.
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t msgs = 0;
  for (int k = 0; k < size_; ++k) {
    if (k == rank_) continue;
    bytes_out += board[rank_][k].size();
    bytes_in += board[k][rank_].size();
    if (!board[rank_][k].empty()) ++msgs;
  }
  AdvanceClock(ps, bytes_out, bytes_in, msgs, /*latency_multiplier=*/1.0);
  ArriveAndCheck();  // B: sizes consumed

  std::vector<ByteBuffer> recv(size_);
  for (int src = 0; src < size_; ++src) {
    recv[src] = std::move(board[src][rank_]);
    board[src][rank_].clear();
    // Decode-side verification: a frame damaged in flight (or by a buggy
    // sender) raises SncubeCorruptionError here, never a wrong payload.
    if (src != rank_ && !recv[src].empty()) VerifyAndStripFrame(recv[src]);
  }
  ArriveAndCheck();  // C: board reusable
  return recv;
}

ByteBuffer Comm::Broadcast(int root, ByteBuffer msg) {
  SNCUBE_CHECK(root >= 0 && root < size_);
  PhaseStats& ps = SyncPrologue();
  auto& board = cluster_.shared_->board;
  if (rank_ == root) {
    // Seal once, then fan out copies of the framed message; the root keeps
    // its own unframed `msg` and returns it untouched below.
    ByteBuffer framed = msg;
    if (size_ > 1 && !framed.empty()) SealFrame(framed);
    for (int dst = 0; dst < size_; ++dst) {
      if (dst == rank_) continue;
      board[rank_][dst] = framed;  // copy: same payload to every destination
    }
  }
  ArriveAndCheck();  // A

  // Any non-root cell of the root's row holds the payload (all copies are
  // identical). With p = 1 there is nothing staged and the cost is zero.
  const int probe = (root == 0) ? (size_ > 1 ? 1 : 0) : 0;
  const std::uint64_t payload = board[root][probe].size();
  // Binomial-tree cost: log2(p) store-and-forward hops of the payload.
  const double depth = TreeDepth(size_);
  double t_base = 0;
  for (double t : cluster_.shared_->published_times) t_base = std::max(t_base, t);
  const double comm =
      depth * (cost_.net_latency_s +
               static_cast<double>(payload) * cost_.net_byte_s);
  const double t_new = t_base + comm;
  ps.net_s += t_new - local_time_;
  local_time_ = t_new;
  if (rank_ == root) {
    ps.bytes_sent += payload * static_cast<std::uint64_t>(size_ - 1);
    ps.messages += static_cast<std::uint64_t>(size_ - 1);
    TraceComm(payload * static_cast<std::uint64_t>(size_ - 1), 0);
  } else {
    ps.bytes_received += payload;
    TraceComm(0, payload);
  }
  ArriveAndCheck();  // B

  ByteBuffer result;
  if (rank_ == root) {
    result = std::move(msg);
    // Staged copies are moved out by their destination ranks below; the root
    // must not touch those cells (one mover per cell).
  } else {
    result = std::move(board[root][rank_]);
    board[root][rank_].clear();
    if (!result.empty()) VerifyAndStripFrame(result);
  }
  ArriveAndCheck();  // C
  return result;
}

std::vector<ByteBuffer> Comm::Gather(int root, ByteBuffer msg) {
  std::vector<ByteBuffer> send(size_);
  send[root] = std::move(msg);
  auto recv = AllToAllv(std::move(send));
  if (rank_ != root) recv.clear();
  return recv;
}

std::vector<ByteBuffer> Comm::AllGather(ByteBuffer msg) {
  std::vector<ByteBuffer> send(size_);
  for (int dst = 0; dst < size_; ++dst) send[dst] = msg;  // copies
  return AllToAllv(std::move(send));
}

std::uint64_t Comm::AllReduceSum(std::uint64_t v) {
  ByteBuffer b;
  WirePut(b, v);
  auto all = AllGather(std::move(b));
  std::uint64_t sum = 0;
  for (auto& buf : all) sum += WireReader(buf).Get<std::uint64_t>();
  return sum;
}

std::uint64_t Comm::AllReduceMax(std::uint64_t v) {
  ByteBuffer b;
  WirePut(b, v);
  auto all = AllGather(std::move(b));
  std::uint64_t m = 0;
  for (auto& buf : all) m = std::max(m, WireReader(buf).Get<std::uint64_t>());
  return m;
}

double Comm::AllReduceMax(double v) {
  ByteBuffer b;
  WirePut(b, v);
  auto all = AllGather(std::move(b));
  double m = -std::numeric_limits<double>::infinity();
  for (auto& buf : all) m = std::max(m, WireReader(buf).Get<double>());
  return m;
}

void Comm::Barrier() {
  PhaseStats& ps = SyncPrologue();
  ArriveAndCheck();  // A
  double t_base = 0;
  for (double t : cluster_.shared_->published_times) t_base = std::max(t_base, t);
  const double t_new = t_base + TreeDepth(size_) * cost_.net_latency_s;
  ps.net_s += t_new - local_time_;
  local_time_ = t_new;
  TraceComm(0, 0);
  ArriveAndCheck();  // B: times consumed
}

}  // namespace sncube
