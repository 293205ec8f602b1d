// Environment knobs shared by benches and examples.
//
// SNCUBE_SCALE   — multiplies every bench's default row count (default 1.0).
// SNCUBE_PAPER   — when set to 1, benches run at the paper's full data sizes
//                  (n = 1M/2M rows); expect long wall times on one core.
// SNCUBE_MAXPROC — caps the largest simulated processor count in sweeps.
#pragma once

#include <cstdint>

namespace sncube {

// Reads an environment variable, returning fallback when unset or malformed.
double EnvDouble(const char* name, double fallback);
std::int64_t EnvInt(const char* name, std::int64_t fallback);
bool EnvFlag(const char* name);

// Bench row-count helper: paper_n when SNCUBE_PAPER=1, otherwise
// default_n * SNCUBE_SCALE.
std::int64_t BenchRows(std::int64_t default_n, std::int64_t paper_n);

}  // namespace sncube
