#include "relation/schema.h"

#include <algorithm>
#include <charconv>
#include <numeric>

#include "common/status.h"

namespace sncube {

Schema::Schema(std::vector<std::uint32_t> cardinalities,
               std::vector<std::string> names) {
  SNCUBE_CHECK(!cardinalities.empty());
  for (auto c : cardinalities) SNCUBE_CHECK_MSG(c >= 1, "zero cardinality");
  const int d = static_cast<int>(cardinalities.size());
  if (names.empty()) {
    names.reserve(d);
    for (int i = 0; i < d; ++i) names.push_back("D" + std::to_string(i));
  }
  SNCUBE_CHECK(static_cast<int>(names.size()) == d);

  // Stable-sort dimension indices by decreasing cardinality, then apply the
  // permutation to both vectors.
  std::vector<int> perm(d);
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](int a, int b) {
    return cardinalities[a] > cardinalities[b];
  });
  cards_.reserve(d);
  names_.reserve(d);
  for (int i : perm) {
    cards_.push_back(cardinalities[i]);
    names_.push_back(std::move(names[i]));
  }
}

std::vector<int> ColumnsByDefaultName(const Schema& schema) {
  const int d = schema.dims();
  std::vector<int> columns(static_cast<std::size_t>(d));
  std::vector<bool> seen(static_cast<std::size_t>(d), false);
  for (int k = 0; k < d; ++k) {
    const std::string& name = schema.name(k);
    int j = -1;
    const char* end = name.data() + name.size();
    const bool parsed =
        name.size() > 1 && name[0] == 'D' &&
        std::from_chars(name.data() + 1, end, j).ptr == end && j >= 0 &&
        j < d && !seen[static_cast<std::size_t>(j)];
    if (!parsed) {
      throw SncubeError("dimension name \"" + name +
                        "\" is not one of D0..D" + std::to_string(d - 1));
    }
    seen[static_cast<std::size_t>(j)] = true;
    columns[static_cast<std::size_t>(k)] = j;
  }
  return columns;
}

}  // namespace sncube
