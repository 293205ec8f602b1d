#include "relation/sort.h"

#include <algorithm>
#include <bit>

#include "common/status.h"

namespace sncube {
namespace {

// Widest digit of one LSD pass; a word of b bits takes ceil(b / 11) passes
// of equal width. Measured on views of the paper's cardinality mix (38-bit
// keys, 1k-125k rows): five 8-bit passes are ~10% slower than four 10-bit
// ones, and 13- or 16-bit digits gain under 5% at 64k rows but lose up to
// 2x below 4k rows.
constexpr int kMaxDigitBits = 11;

// Below this many rows clearing and prefix-summing 2^11 counters per pass
// costs more than moving the rows, so digits shrink to 8 bits (measured
// crossover: 768-1024 rows).
constexpr std::size_t kSmallSortRows = 1024;

// uint32 row ids address at most this many rows.
constexpr std::uint64_t kMaxSortRows = std::uint64_t{1} << 32;

// One sort column inside a packed word.
struct Field {
  int col;
  int bits;
};

// Sorts the rows of one key word: packs fields [f0, f1) of every row into
// the bits above the row offset of each entry of `a` (offsets come from
// `a` itself unless `first_word`), then runs stable LSD passes over those
// bits, ping-ponging with `b`. On return `a` holds the sorted entries.
void SortWord(const Key* keys, std::size_t width, std::size_t begin,
              const Field* f0, const Field* f1, int row_bits,
              bool first_word, std::vector<std::uint64_t>& a,
              std::vector<std::uint64_t>& b) {
  const std::size_t n = a.size();
  const std::uint64_t row_mask = (std::uint64_t{1} << row_bits) - 1;
  int bits = 0;
  for (const Field* f = f0; f != f1; ++f) bits += f->bits;
  const int max_digit = n < kSmallSortRows ? 8 : kMaxDigitBits;
  const int passes = (bits + max_digit - 1) / max_digit;
  const int digit = (bits + passes - 1) / passes;
  const std::size_t buckets = std::size_t{1} << digit;
  const std::uint64_t digit_mask = buckets - 1;
  std::vector<std::size_t> counts(static_cast<std::size_t>(passes) * buckets);

  // Pack, counting every pass's digits on the way.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t off = first_word ? i : (a[i] & row_mask);
    const Key* row = keys + (begin + off) * width;
    std::uint64_t key = 0;
    for (const Field* f = f0; f != f1; ++f) {
      key = (key << f->bits) | row[f->col];
    }
    const std::uint64_t entry = (key << row_bits) | off;
    a[i] = entry;
    std::size_t* c = counts.data();
    for (int p = 0; p < passes; ++p, c += buckets) {
      ++c[(entry >> (row_bits + p * digit)) & digit_mask];
    }
  }

  std::size_t* c = counts.data();
  for (int p = 0; p < passes; ++p, c += buckets) {
    const int shift = row_bits + p * digit;
    // A digit every row shares moves nothing.
    if (c[(a[0] >> shift) & digit_mask] == n) continue;
    std::size_t sum = 0;
    for (std::size_t d = 0; d < buckets; ++d) {
      const std::size_t count = c[d];
      c[d] = sum;
      sum += count;
    }
    // Scanning `a` in order and appending to each bucket keeps equal digits
    // in their current order: this is what makes the sort stable.
    for (const std::uint64_t entry : a) {
      b[c[(entry >> shift) & digit_mask]++] = entry;
    }
    a.swap(b);
  }
}

}  // namespace

void RadixSortRows(const Relation& rel, std::span<const int> cols,
                   std::size_t begin, std::size_t end,
                   std::span<std::uint32_t> out) {
  SNCUBE_CHECK_MSG(rel.size() <= kMaxSortRows,
                   "relation exceeds the 2^32 rows a uint32 permutation "
                   "can address");
  SNCUBE_CHECK(begin <= end && end <= rel.size() && out.size() == end - begin);
  const std::size_t n = end - begin;
  const Key* keys = rel.raw_keys();
  const auto width = static_cast<std::size_t>(rel.width());

  // Observed width of every sort column; an all-zero column orders nothing.
  std::vector<Key> any(cols.size(), 0);
  for (std::size_t r = begin; r < end; ++r) {
    const Key* row = keys + r * width;
    for (std::size_t i = 0; i < cols.size(); ++i) any[i] |= row[cols[i]];
  }
  std::vector<Field> fields;
  for (std::size_t i = 0; i < cols.size(); ++i) {
    if (any[i] != 0) {
      fields.push_back({cols[i], static_cast<int>(std::bit_width(any[i]))});
    }
  }
  if (n < 2 || fields.empty()) {
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::uint32_t>(begin + i);
    }
    return;
  }

  // The row offset takes the low row_bits of every entry; the fields go in
  // words of at most 64 - row_bits >= 32 bits, cut at column boundaries and
  // sorted least significant word first.
  const auto row_bits = static_cast<int>(std::bit_width(n - 1));
  std::vector<std::uint64_t> a(n);
  std::vector<std::uint64_t> b(n);
  const Field* last = fields.data() + fields.size();
  bool first_word = true;
  while (last != fields.data()) {
    const Field* first = last;
    int bits = 0;
    while (first != fields.data() && bits + first[-1].bits <= 64 - row_bits) {
      --first;
      bits += first->bits;
    }
    SortWord(keys, width, begin, first, last, row_bits, first_word, a, b);
    first_word = false;
    last = first;
  }
  const std::uint64_t row_mask = (std::uint64_t{1} << row_bits) - 1;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(begin + (a[i] & row_mask));
  }
}

}  // namespace sncube
