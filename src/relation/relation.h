// Flat, cache-friendly relational table: n rows of `width` uint32 dimension
// keys plus one int64 measure per row.
//
// Storage is a single contiguous key array (row-major) and a measure array.
// Rows are addressed by index; sorting produces a permutation which is then
// applied with one gather pass (see sort.h). This is deliberately simple —
// the ROLAP views the cube materializes are exactly tables of this shape.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "relation/types.h"

namespace sncube {

class Relation {
 public:
  Relation() : width_(0) {}
  explicit Relation(int width) : width_(width) { SNCUBE_CHECK(width >= 0); }

  int width() const { return width_; }
  std::size_t size() const { return measures_.size(); }
  bool empty() const { return measures_.empty(); }

  void Reserve(std::size_t rows) {
    keys_.reserve(rows * static_cast<std::size_t>(width_));
    measures_.reserve(rows);
  }

  // Appends one row. keys.size() must equal width().
  void Append(std::span<const Key> keys, Measure m) {
    SNCUBE_DCHECK(static_cast<int>(keys.size()) == width_);
    keys_.insert(keys_.end(), keys.begin(), keys.end());
    measures_.push_back(m);
  }

  // Appends a copy of `src` row `row` (same width required).
  void AppendRow(const Relation& src, std::size_t row) {
    SNCUBE_DCHECK(src.width() == width_);
    Append(src.RowKeys(row), src.measure(row));
  }

  // Sets the row count; new rows are zero. Bulk writers size a relation
  // once and then fill it (GatherRows, DeserializeRows).
  void Resize(std::size_t rows) {
    keys_.resize(rows * static_cast<std::size_t>(width_));
    measures_.resize(rows);
  }

  // Releases storage beyond size(): a relation sized for more rows than it
  // kept and then cut down with Resize holds only its rows again.
  void ShrinkToFit() {
    keys_.shrink_to_fit();
    measures_.shrink_to_fit();
  }

  // Overwrites rows [first, first + rows.size()) with rows `rows` of `src`
  // (same width). Calls on disjoint ranges may run concurrently.
  void GatherRows(const Relation& src, std::span<const std::uint32_t> rows,
                  std::size_t first) {
    SNCUBE_DCHECK(src.width() == width_ && first + rows.size() <= size());
    const auto w = static_cast<std::size_t>(width_);
    Key* dst = keys_.data() + first * w;
    Measure* dst_m = measures_.data() + first;
    for (const std::uint32_t row : rows) {
      std::copy_n(src.keys_.data() + row * w, w, dst);
      dst += w;
      *dst_m++ = src.measures_[row];
    }
  }

  std::span<const Key> RowKeys(std::size_t row) const {
    SNCUBE_DCHECK(row < size());
    return {keys_.data() + row * static_cast<std::size_t>(width_),
            static_cast<std::size_t>(width_)};
  }

  Key key(std::size_t row, int col) const {
    SNCUBE_DCHECK(row < size() && col >= 0 && col < width_);
    return keys_[row * static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(col)];
  }

  Measure measure(std::size_t row) const {
    SNCUBE_DCHECK(row < size());
    return measures_[row];
  }
  Measure& measure(std::size_t row) {
    SNCUBE_DCHECK(row < size());
    return measures_[row];
  }

  void Clear() {
    keys_.clear();
    measures_.clear();
  }

  // Clears the rows and sets the width, keeping the storage's capacity: a
  // relation reused for views of any width allocates for the largest once.
  void Reset(int width) {
    SNCUBE_CHECK(width >= 0);
    width_ = width;
    Clear();
  }

  // Serialized footprint in bytes: 4*width per-row keys + 8-byte measure.
  // This is the unit the paper's "Megabytes" axes and our communication
  // metrics count.
  std::size_t RowBytes() const {
    return sizeof(Key) * static_cast<std::size_t>(width_) + sizeof(Measure);
  }
  std::size_t ByteSize() const { return RowBytes() * size(); }

  // Moves all rows of `other` onto the end of this relation.
  void Concat(Relation&& other) {
    SNCUBE_CHECK(other.width_ == width_);
    keys_.insert(keys_.end(), other.keys_.begin(), other.keys_.end());
    measures_.insert(measures_.end(), other.measures_.begin(),
                     other.measures_.end());
    other.Clear();
  }

  // Direct access to the flat key storage (hot-path sorting only).
  const Key* raw_keys() const { return keys_.data(); }
  // The measures in row order.
  std::span<const Measure> measures() const { return measures_; }
  // Mutable flat key storage, for bulk writers that Resize first.
  Key* mutable_raw_keys() { return keys_.data(); }

  bool operator==(const Relation& other) const {
    return width_ == other.width_ && keys_ == other.keys_ &&
           measures_ == other.measures_;
  }

 private:
  int width_;
  std::vector<Key> keys_;       // row-major, size() * width_
  std::vector<Measure> measures_;
};

// Lexicographic comparison of row `a` of `ra` against row `b` of `rb` over
// column position lists `ca` / `cb` (parallel, same length). Returns <0, 0,
// >0. The column lists let callers compare in any sort order (pipelines) and
// across relations whose widths differ.
inline int CompareRows(const Relation& ra, std::size_t a,
                       std::span<const int> ca, const Relation& rb,
                       std::size_t b, std::span<const int> cb) {
  SNCUBE_DCHECK(ca.size() == cb.size());
  for (std::size_t i = 0; i < ca.size(); ++i) {
    const Key ka = ra.key(a, ca[i]);
    const Key kb = rb.key(b, cb[i]);
    if (ka != kb) return ka < kb ? -1 : 1;
  }
  return 0;
}

// Comparison over all columns in storage order (canonical view order).
inline int CompareRows(const Relation& ra, std::size_t a, const Relation& rb,
                       std::size_t b) {
  SNCUBE_DCHECK(ra.width() == rb.width());
  for (int c = 0; c < ra.width(); ++c) {
    const Key ka = ra.key(a, c);
    const Key kb = rb.key(b, c);
    if (ka != kb) return ka < kb ? -1 : 1;
  }
  return 0;
}

}  // namespace sncube
