#include "serve/shard_set.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <string>
#include <utility>

#include "common/status.h"

namespace sncube {
namespace {

// Hands the free pages of a dropped epoch back to the OS. glibc keeps freed
// chunks in its arenas, so without this a long-running server's RSS climbs
// by about one epoch per swap although only two epochs are live.
void ReleaseFreedPages() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

int SliceOfLeadingKey(Key value, int n_slices) {
  SNCUBE_DCHECK(n_slices >= 1);
  // FNV-1a over the key's four bytes: stable across runs and platforms,
  // matching the spirit of QueryKeyHash (serve/query_key.h).
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int i = 0; i < 4; ++i) {
    h ^= (static_cast<std::uint32_t>(value) >> (8 * i)) & 0xFFu;
    h *= 0x100000001b3ULL;
  }
  return static_cast<int>(h % static_cast<std::uint64_t>(n_slices));
}

std::vector<CubeResult> PartitionCubeForServing(const CubeResult& cube,
                                                int n_slices) {
  SNCUBE_CHECK(n_slices >= 1);
  const auto n = static_cast<std::size_t>(n_slices);
  std::vector<CubeResult> slices(n);
  for (const auto& [id, vr] : cube.views) {
    // Source rows per slice, ascending. Column 0 is the leading
    // (smallest-index, highest-cardinality) dimension in the canonical
    // layout. The 0-dim "all" view has no leading dimension; its single row
    // (if materialized non-empty) is assigned to slice 0 by convention, and
    // the router treats empty-view queries as point lookups on slice 0.
    SNCUBE_CHECK_MSG(vr.rel.size() <= UINT32_MAX,
                     "view too large to partition (2^32 rows)");
    std::vector<std::vector<std::uint32_t>> rows(n);
    for (std::size_t r = 0; r < vr.rel.size(); ++r) {
      const int s =
          id.empty() ? 0 : SliceOfLeadingKey(vr.rel.key(r, 0), n_slices);
      rows[static_cast<std::size_t>(s)].push_back(
          static_cast<std::uint32_t>(r));
    }
    // Every slice carries every view (possibly empty) so from_view-pinned
    // routing resolves against any slice. Gathering rows in source order
    // keeps each slice sorted by vr.order — a subsequence of sorted rows.
    for (std::size_t s = 0; s < n; ++s) {
      ViewResult shell;
      shell.id = id;
      shell.order = vr.order;
      shell.selected = vr.selected;
      shell.rel = Relation(vr.rel.width());
      shell.rel.Resize(rows[s].size());
      shell.rel.GatherRows(vr.rel, rows[s], 0);
      slices[s].views.emplace(id, std::move(shell));
    }
  }
  return slices;
}

ViewResult AssembleServingView(std::span<const CubeResult> slices, ViewId id) {
  SNCUBE_CHECK(!slices.empty());
  std::vector<const Relation*> parts;
  std::size_t rows = 0;
  for (const CubeResult& slice : slices) {
    parts.push_back(&slice.views.at(id).rel);
    rows += parts.back()->size();
  }
  const ViewResult& first = slices.front().views.at(id);
  ViewResult out;
  out.id = id;
  out.order = first.order;
  out.selected = first.selected;
  out.rel = Relation(first.rel.width());
  out.rel.Reserve(rows);
  // N-way merge in the view's sort order. Groups are distinct, so no two
  // heads ever compare equal and the merge needs no tie rule.
  const std::vector<int> cols = ColumnsOf(id, first.order);
  std::vector<std::size_t> next(parts.size(), 0);
  for (std::size_t k = 0; k < rows; ++k) {
    std::size_t best = parts.size();
    for (std::size_t s = 0; s < parts.size(); ++s) {
      if (next[s] == parts[s]->size()) continue;
      if (best == parts.size() ||
          CompareRows(*parts[s], next[s], cols, *parts[best], next[best],
                      cols) < 0) {
        best = s;
      }
    }
    out.rel.AppendRow(*parts[best], next[best]++);
  }
  return out;
}

CubeResult AssembleServingCube(std::span<const CubeResult> slices) {
  SNCUBE_CHECK(!slices.empty());
  CubeResult cube;
  for (const auto& [id, vr] : slices.front().views) {
    cube.views.emplace(id, AssembleServingView(slices, id));
  }
  return cube;
}

const char* TryOutcomeName(TryOutcome o) {
  switch (o) {
    case TryOutcome::kOk: return "ok";
    case TryOutcome::kError: return "error";
    case TryOutcome::kRejected: return "rejected";
    case TryOutcome::kTimedOut: return "timed_out";
    case TryOutcome::kShardDown: return "shard_down";
    case TryOutcome::kEpochGone: return "epoch_gone";
  }
  return "unknown";
}

ShardSet::ShardSet(const CubeResult& cube, const ShardSetOptions& options,
                   const FaultPlan& plan)
    : n_(options.shards),
      options_(options),
      clock_(options.clock != nullptr ? options.clock : &wall_clock_),
      kills_(static_cast<std::size_t>(options.shards)),
      slows_(static_cast<std::size_t>(options.shards)) {
  SNCUBE_CHECK(n_ >= 1);
  for (const auto& sk : plan.shard_kills) {
    SNCUBE_CHECK_MSG(sk.shard >= 0 && sk.shard < n_,
                     "shardkill clause targets nonexistent shard");
    auto& w = kills_[static_cast<std::size_t>(sk.shard)];
    w.has = true;
    w.from = sk.from;
    w.until = sk.until;
  }
  for (const auto& sl : plan.shard_slows) {
    SNCUBE_CHECK_MSG(sl.shard >= 0 && sl.shard < n_,
                     "shardslow clause targets nonexistent shard");
    auto& w = slows_[static_cast<std::size_t>(sl.shard)];
    w.has = true;
    w.from = sl.from;
    w.until = sl.until;
    w.factor = sl.factor;
  }
  hosted_.reserve(static_cast<std::size_t>(n_));
  for (int s = 0; s < n_; ++s) {
    auto hs = std::make_unique<HostedShard>();
    // A finite kill window owes exactly one restart invalidation when it
    // closes; an endless one never restarts.
    const auto& kw = kills_[static_cast<std::size_t>(s)];
    hs->restart_pending.store(kw.has && kw.until != FaultPlan::kNoEnd,
                              std::memory_order_relaxed);
    hosted_.push_back(std::move(hs));
  }
  auto st = BuildEpochState(0, PartitionCubeForServing(cube, n_));
  MutexLock lock(mu_);
  epochs_.emplace(0, std::move(st));
}

ShardSet::~ShardSet() { Shutdown(); }

std::shared_ptr<ShardSet::EpochState> ShardSet::BuildEpochState(
    std::uint64_t epoch, std::vector<CubeResult> slices) {
  SNCUBE_CHECK_MSG(slices.size() == static_cast<std::size_t>(n_),
                   "an epoch needs one slice per shard");
  auto st = std::make_shared<EpochState>();
  st->epoch = epoch;
  st->slices = std::move(slices);
  st->index = IndexOf(st->slices.front());
  for (ViewEntry& entry : st->index) {
    for (std::size_t s = 1; s < st->slices.size(); ++s) {
      entry.rows += st->slices[s].views.at(entry.id).rel.size();
    }
  }
  ServerOptions server = options_.server;
  server.epoch = epoch;
  st->copies.resize(static_cast<std::size_t>(n_));
  for (int s = 0; s < n_; ++s) {
    auto& copy = st->copies[static_cast<std::size_t>(s)];
    copy.primary = std::make_unique<CubeServer>(
        st->slices[static_cast<std::size_t>(s)], server);
    copy.replica = std::make_unique<CubeServer>(
        st->slices[static_cast<std::size_t>((s - 1 + n_) % n_)], server);
  }
  return st;
}

std::shared_ptr<ShardSet::EpochState> ShardSet::StateFor(
    std::uint64_t epoch) const {
  MutexLock lock(mu_);
  const auto it = epochs_.find(epoch);
  return it == epochs_.end() ? nullptr : it->second;
}

void ShardSet::PrepareEpoch(std::uint64_t epoch,
                            std::vector<CubeResult> slices) {
  SNCUBE_CHECK_MSG(epoch > serving_epoch(),
                   "refresh epochs must advance monotonically");
  // Index and server spin-up happen outside the lock — a prepare must not
  // stall the request path's epoch resolution.
  auto st = BuildEpochState(epoch, std::move(slices));
  MutexLock lock(mu_);
  const bool inserted = epochs_.emplace(epoch, std::move(st)).second;
  SNCUBE_CHECK_MSG(inserted, "epoch already prepared");
}

void ShardSet::CommitShard(std::uint64_t epoch, int shard) {
  SNCUBE_CHECK(shard >= 0 && shard < n_);
  SNCUBE_CHECK_MSG(StateFor(epoch) != nullptr, "commit of unprepared epoch");
  hosted_[static_cast<std::size_t>(shard)]->shard_epoch.store(
      epoch, std::memory_order_release);
}

void ShardSet::FinalizeEpoch(std::uint64_t epoch) {
  std::vector<std::shared_ptr<EpochState>> retired;
  {
    MutexLock lock(mu_);
    SNCUBE_CHECK_MSG(epochs_.find(epoch) != epochs_.end(),
                     "finalize of unprepared epoch");
    // Keep `epoch` and its immediate predecessor: requests that pinned the
    // old serving epoch just before the flip are still in flight and must
    // drain against live servers. Anything older has had a full finalize
    // cycle to drain and retires now.
    for (auto it = epochs_.begin(); it != epochs_.end();) {
      if (it->first + 1 < epoch) {
        retired.push_back(std::move(it->second));
        it = epochs_.erase(it);
      } else {
        ++it;
      }
    }
    serving_epoch_.store(epoch, std::memory_order_release);
  }
  // Shutdown drains outside the lock (it blocks on worker quiescence, and
  // the request path needs mu_ to resolve epochs meanwhile).
  for (const auto& st : retired) {
    for (const auto& copy : st->copies) {
      copy.primary->Shutdown();
      copy.replica->Shutdown();
    }
  }
  if (!retired.empty()) {
    retired.clear();
    ReleaseFreedPages();
  }
}

void ShardSet::AbandonEpoch(std::uint64_t epoch) {
  SNCUBE_CHECK_MSG(epoch != serving_epoch(),
                   "cannot abandon the serving epoch");
  std::shared_ptr<EpochState> st;
  {
    MutexLock lock(mu_);
    const auto it = epochs_.find(epoch);
    if (it == epochs_.end()) return;  // idempotent: abort paths may race
    st = std::move(it->second);
    epochs_.erase(it);
  }
  for (const auto& copy : st->copies) {
    copy.primary->Shutdown();
    copy.replica->Shutdown();
  }
  st.reset();
  ReleaseFreedPages();
}

std::vector<std::uint64_t> ShardSet::HostedEpochs() const {
  std::vector<std::uint64_t> out;
  MutexLock lock(mu_);
  out.reserve(epochs_.size());
  for (const auto& [e, st] : epochs_) out.push_back(e);
  return out;
}

std::shared_ptr<ShardSet::EpochState> ShardSet::HostedState(
    std::uint64_t epoch) const {
  auto st = StateFor(epoch);
  if (st == nullptr) {
    throw SncubeError("epoch " + std::to_string(epoch) + " is not hosted");
  }
  return st;
}

ViewId ShardSet::RouteOnFull(const Query& query, std::uint64_t epoch) const {
  return RouteQuery(query, HostedState(epoch)->index).id;
}

std::vector<ViewEntry> ShardSet::Index(std::uint64_t epoch) const {
  return HostedState(epoch)->index;
}

std::shared_ptr<const std::vector<CubeResult>> ShardSet::Slices(
    std::uint64_t epoch) const {
  auto st = StateFor(epoch);
  if (st == nullptr) return nullptr;
  const std::vector<CubeResult>* slices = &st->slices;
  return {std::move(st), slices};
}

void ShardSet::Shutdown() {
  std::vector<std::shared_ptr<EpochState>> states;
  {
    MutexLock lock(mu_);
    states.reserve(epochs_.size());
    for (const auto& [e, st] : epochs_) states.push_back(st);
  }
  for (const auto& st : states) {
    for (const auto& copy : st->copies) {
      copy.primary->Shutdown();
      copy.replica->Shutdown();
    }
  }
}

const CubeServer& ShardSet::primary_server(int slice) const {
  SNCUBE_CHECK(slice >= 0 && slice < n_);
  const auto st = StateFor(serving_epoch());
  SNCUBE_CHECK(st != nullptr);
  // The serving epoch's state outlives this reference: it is retired (and
  // destroyed) no earlier than the finalize AFTER it stops serving.
  return *st->copies[static_cast<std::size_t>(slice)].primary;
}

const CubeServer& ShardSet::replica_server(int slice) const {
  SNCUBE_CHECK(slice >= 0 && slice < n_);
  const auto st = StateFor(serving_epoch());
  SNCUBE_CHECK(st != nullptr);
  return *st->copies[static_cast<std::size_t>(ReplicaShardOf(slice))].replica;
}

CubeServer* ShardSet::ServerIn(EpochState& st, int shard, int slice, int n) {
  SNCUBE_CHECK(shard >= 0 && shard < n && slice >= 0 && slice < n);
  auto& copy = st.copies[static_cast<std::size_t>(shard)];
  if (slice == shard) return copy.primary.get();
  SNCUBE_CHECK_MSG(shard == (slice + 1) % n, "shard does not host this slice");
  return copy.replica.get();
}

bool ShardSet::Killed(int shard, std::uint64_t seq) const {
  const auto& w = kills_[static_cast<std::size_t>(shard)];
  return w.has && seq >= w.from && seq < w.until;
}

double ShardSet::SlowFactor(int shard, std::uint64_t seq) const {
  const auto& w = slows_[static_cast<std::size_t>(shard)];
  return (w.has && seq >= w.from && seq < w.until) ? w.factor : 1.0;
}

void ShardSet::MaybeRestart(int shard, std::uint64_t seq) {
  const auto& w = kills_[static_cast<std::size_t>(shard)];
  if (!w.has || w.until == FaultPlan::kNoEnd || seq < w.until) return;
  HostedShard& hs = *hosted_[static_cast<std::size_t>(shard)];
  // Exactly one caller wins the exchange and clears the shard's hosted
  // caches across EVERY resident epoch — the restarted process comes back
  // cold, so answers cached against any pre-restart snapshot can never be
  // served stale.
  if (hs.restart_pending.exchange(false, std::memory_order_acq_rel)) {
    std::vector<std::shared_ptr<EpochState>> states;
    {
      MutexLock lock(mu_);
      states.reserve(epochs_.size());
      for (const auto& [e, st] : epochs_) states.push_back(st);
    }
    for (const auto& st : states) {
      auto& copy = st->copies[static_cast<std::size_t>(shard)];
      copy.primary->InvalidateCache();
      copy.replica->InvalidateCache();
    }
  }
}

bool ShardSet::Ping(int shard, std::uint64_t seq) {
  SNCUBE_CHECK(shard >= 0 && shard < n_);
  MaybeRestart(shard, seq);
  return !Killed(shard, seq);
}

TryResult ShardSet::ExecuteOnShard(int shard, int slice, const Query& query,
                                   std::uint64_t seq, std::uint64_t epoch) {
  MaybeRestart(shard, seq);
  TryResult res;
  const std::uint64_t t0 = clock_->NowMicros();
  if (Killed(shard, seq)) {
    // A dead shard fails fast ("connection refused"): no virtual time is
    // charged beyond what the clock already shows.
    res.outcome = TryOutcome::kShardDown;
    res.latency_us = clock_->NowMicros() - t0;
    return res;
  }

  // Epoch resolution. Pinned (production) mode honors the router's choice:
  // every sub-query of a request answers from the same snapshot, and a
  // retired pin is a typed failure, never another epoch's data. The
  // pin_epoch=false test hole reproduces the naive single-phase swap: each
  // shard answers from whatever IT last committed, so a scatter that spans a
  // half-committed swap blends two snapshots — the violation the refresh
  // chaos harness exists to catch.
  const std::uint64_t effective =
      options_.pin_epoch
          ? epoch
          : hosted_[static_cast<std::size_t>(shard)]->shard_epoch.load(
                std::memory_order_acquire);
  // Holding the shared_ptr keeps the epoch's servers alive across the wait
  // even if the epoch retires mid-request.
  const std::shared_ptr<EpochState> st = StateFor(effective);
  if (st == nullptr) {
    res.outcome = TryOutcome::kEpochGone;
    res.latency_us = clock_->NowMicros() - t0;
    return res;
  }

  CubeServer* server = ServerIn(*st, shard, slice, n_);
  Mutex mu;
  CondVar cv;
  bool ready = false;
  QueryOutcome qo = QueryOutcome::kFailed;
  std::shared_ptr<const QueryAnswer> answer;
  const SubmitStatus sub = server->Submit(
      query, [&](std::shared_ptr<const QueryAnswer> a, QueryOutcome o) {
        MutexLock lock(mu);
        answer = std::move(a);
        qo = o;
        ready = true;
        cv.NotifyOne();
      });
  if (sub == SubmitStatus::kRejected) {
    res.outcome = TryOutcome::kRejected;
    res.latency_us = clock_->NowMicros() - t0;
    return res;
  }
  if (sub == SubmitStatus::kShutdown) {
    res.outcome = TryOutcome::kShardDown;
    res.latency_us = clock_->NowMicros() - t0;
    return res;
  }
  {
    MutexLock lock(mu);
    while (!ready) cv.Wait(mu);
  }
  switch (qo) {
    case QueryOutcome::kOk:
      res.outcome = TryOutcome::kOk;
      res.answer = std::move(answer);
      break;
    case QueryOutcome::kFailed:
      res.outcome = TryOutcome::kError;
      break;
    case QueryOutcome::kTimedOut:
      res.outcome = TryOutcome::kTimedOut;
      break;
  }

  const double factor = SlowFactor(shard, seq);
  if (factor > 1.0) {
    // Stretch the service time in VIRTUAL terms only: real compute time is
    // invisible to a ManualServeClock, so the floor is nominal_service_us —
    // this keeps a faulted run a deterministic function of the plan.
    const std::uint64_t virtual_elapsed = clock_->NowMicros() - t0;
    const std::uint64_t base =
        std::max(virtual_elapsed, options_.nominal_service_us);
    clock_->SleepMicros(
        static_cast<std::uint64_t>((factor - 1.0) * static_cast<double>(base)));
  }
  res.latency_us = clock_->NowMicros() - t0;
  return res;
}

}  // namespace sncube
