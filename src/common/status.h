// Error handling for sncube.
//
// The library uses exceptions for unrecoverable precondition violations and
// I/O failures; hot paths use SNCUBE_DCHECK which compiles away in release
// builds. All throwing sites funnel through SncubeError so callers can catch
// a single type at the API boundary; the subclasses below form the failure
// taxonomy (see DESIGN.md "Failure model") so callers that need to can react
// per failure class — retry transients, resume a build on aborts,
// reject corrupt inputs.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sncube {

// Base exception for all sncube failures.
class SncubeError : public std::runtime_error {
 public:
  explicit SncubeError(const std::string& what) : std::runtime_error(what) {}
};

// Malformed, truncated, or otherwise untrustworthy serialized data: wire
// buffers, view files, MANIFEST lines. Never retryable — the bytes are
// wrong, not the medium.
class SncubeCorruptionError : public SncubeError {
 public:
  explicit SncubeCorruptionError(const std::string& what)
      : SncubeError(what) {}
};

// A disk or file operation failed and is not expected to succeed on retry
// (missing file, short write after retries, permission).
class SncubeIoError : public SncubeError {
 public:
  explicit SncubeIoError(const std::string& what) : SncubeError(what) {}
};

// A disk operation failed transiently; callers may retry (the view store
// does, a few times, before escalating to a SncubeIoError, which inside a
// cluster run becomes a rank failure).
class SncubeTransientIoError : public SncubeIoError {
 public:
  explicit SncubeTransientIoError(const std::string& what)
      : SncubeIoError(what) {}
};

// A rank was deliberately killed by the fault injector (testing only).
class InjectedFaultError : public SncubeError {
 public:
  explicit InjectedFaultError(const std::string& what) : SncubeError(what) {}
};

// A cluster Run aborted because some rank failed. Surviving ranks blocked in
// a collective receive this instead of deadlocking or running past
// mismatched supersteps, and Cluster::Run rethrows it to the caller. Names
// the rank whose failure caused the abort and the superstep (collective
// index within the Run) at which it died.
class ClusterAbortedError : public SncubeError {
 public:
  ClusterAbortedError(const std::string& what, int failed_rank,
                      std::uint64_t superstep)
      : SncubeError(what), failed_rank_(failed_rank), superstep_(superstep) {}

  int failed_rank() const { return failed_rank_; }
  std::uint64_t superstep() const { return superstep_; }

 private:
  int failed_rank_;
  std::uint64_t superstep_;
};

namespace internal {

[[noreturn]] inline void CheckFailed(const char* expr, const char* file,
                                     int line, const std::string& msg) {
  std::ostringstream os;
  os << "SNCUBE_CHECK failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw SncubeError(os.str());
}

}  // namespace internal

// Always-on invariant check; throws SncubeError on failure.
#define SNCUBE_CHECK(expr)                                              \
  do {                                                                  \
    if (!(expr))                                                        \
      ::sncube::internal::CheckFailed(#expr, __FILE__, __LINE__, "");   \
  } while (0)

#define SNCUBE_CHECK_MSG(expr, msg)                                     \
  do {                                                                  \
    if (!(expr))                                                        \
      ::sncube::internal::CheckFailed(#expr, __FILE__, __LINE__, (msg)); \
  } while (0)

// Debug-only check; disappears in NDEBUG builds so it is safe on hot paths.
#ifdef NDEBUG
#define SNCUBE_DCHECK(expr) \
  do {                      \
  } while (0)
#else
#define SNCUBE_DCHECK(expr) SNCUBE_CHECK(expr)
#endif

}  // namespace sncube
