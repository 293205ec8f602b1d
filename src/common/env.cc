#include "common/env.h"

#include <cstdlib>

namespace sncube {

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

std::int64_t EnvInt(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

bool EnvFlag(const char* name) { return EnvInt(name, 0) != 0; }

std::int64_t BenchRows(std::int64_t default_n, std::int64_t paper_n) {
  if (EnvFlag("SNCUBE_PAPER")) return paper_n;
  const double scale = EnvDouble("SNCUBE_SCALE", 1.0);
  const auto n = static_cast<std::int64_t>(static_cast<double>(default_n) * scale);
  return n < 1 ? 1 : n;
}

}  // namespace sncube
