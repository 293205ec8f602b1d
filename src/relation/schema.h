// Schema of the raw data set: d dimensions with names and cardinalities.
//
// Following Section 2 of the paper, dimensions are globally indexed in
// DECREASING cardinality order: |D0| >= |D1| >= ... >= |Dd-1|. Every view
// identifier lists its dimensions in that canonical order, and all lattice /
// partition definitions rely on it, so Schema enforces the ordering at
// construction (sorting the caller's dimensions if needed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sncube {

class Schema {
 public:
  Schema() = default;

  // Builds a schema from per-dimension cardinalities. Dimensions are sorted
  // into decreasing-cardinality order (stable, so equal cardinalities keep
  // the caller's relative order). Names default to "D0", "D1", ...
  explicit Schema(std::vector<std::uint32_t> cardinalities,
                  std::vector<std::string> names = {});

  int dims() const { return static_cast<int>(cards_.size()); }
  std::uint32_t cardinality(int dim) const { return cards_.at(dim); }
  const std::vector<std::uint32_t>& cardinalities() const { return cards_; }
  const std::string& name(int dim) const { return names_.at(dim); }

 private:
  std::vector<std::uint32_t> cards_;
  std::vector<std::string> names_;
};

// Where each dimension of `schema` sits in data whose column j is dimension
// "D<j>" (a CSV read for a schema built with the default names): element k
// is the column holding dimension k, so PermuteColumns (relation/sort.h)
// with it yields schema order. Throws SncubeError unless the names are
// exactly D0..D<dims-1> in some order.
std::vector<int> ColumnsByDefaultName(const Schema& schema);

}  // namespace sncube
