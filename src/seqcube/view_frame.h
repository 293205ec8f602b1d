// The view frame: the one durable format of a materialized view, written
// into the cube directory (seqcube/view_store.h) at the epoch of the build
// or refresh that made it. Callers seal a frame with io/checked_file.h; the
// frame itself carries no checksum.
//
// A frame is a fixed header, then one pair of LEB128 varints per row:
//
//   u32 magic 'SNVF' | u32 version | u32 mask | u8 selected | u64 epoch |
//   u8 n | u8 order[n] | u8 width[n] | u64 rows |
//   rows x ( varint key delta | varint zigzag(measure) )
//
// (little-endian). `order` is the view's sort order (global dimensions) and
// width[i] is the bit width of the OR of column order[i] over all of the
// view's rows. A row's packed key is its sort-order columns at those widths,
// order[0] most significant; the first row stores its key and every later
// row the difference from the row before. A sorted, aggregated view has
// strictly increasing keys, so every difference after the first is >= 1.
// A key wider than 64 bits is cut into words of at most 64 bits at column
// boundaries (as relation/sort.h's radix kernel cuts its keys) and its
// difference is one varint over the concatenated words.
//
// The codec is two primitives on packed keys. FrameCursor walks a frame's
// rows, yielding each row's packed key and measure; FrameEncoder writes a
// frame from packed keys and measures. DecodeViewFrame is the cursor plus a
// field unpack (KeyLayout::Unpack), EncodeViewFrame a width pass plus a
// field pack (KeyLayout::Pack) into the encoder, and a refresh merges a
// delta into a stored view with the two and no unpacking
// (refresh/delta.h, MergeDeltaFrame).
//
// The frame is outside input: the cursor bounds-checks every field and
// throws SncubeCorruptionError on a bad magic or version, an order that is
// not a permutation of the mask's dimensions, a width above 32, an overlong
// or non-minimal varint, a key that does not increase, a key beyond the
// recorded widths, a row count the payload cannot hold, and trailing bytes.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "relation/serialize.h"
#include "seqcube/cube_result.h"

namespace sncube {

// A packed sort key, word 0 least significant. A narrow key (64 bits or
// fewer) is word 0 alone; a wider one uses KeyLayout::words() words.
using PackedKey = std::array<std::uint64_t, ViewId::kMaxDims>;

// Where each sort column of a view sits in its packed key at given widths.
// Words are cut at column boundaries, filled greedily from the least
// significant column; zero-width columns occupy no bits.
class KeyLayout {
 public:
  // `cols` are the sort columns' positions in the view's canonical column
  // layout (ColumnsOf), most significant first; `widths` their bit widths.
  KeyLayout(std::span<const int> cols, std::span<const std::uint8_t> widths);

  bool narrow() const { return word_bits_.size() <= 1; }
  // Words of a wide key, least significant first, and their bits.
  std::size_t words() const { return word_bits_.size(); }
  int word_bits(std::size_t k) const { return word_bits_[k]; }
  int total_bits() const { return total_bits_; }
  // Bytes of the longest key-delta varint.
  int key_bytes() const { return key_bytes_; }

  // Packs `row` (a row in the canonical column layout) into `key`; each
  // column must fit its width.
  void Pack(const Key* row, PackedKey& key) const {
    if (narrow()) {
      std::uint64_t k = 0;
      for (const Field& f : fields_) k |= std::uint64_t{row[f.col]} << f.shift;
      key[0] = k;
      return;
    }
    for (std::size_t k = 0; k < words(); ++k) key[k] = 0;
    for (const Field& f : fields_) {
      key[static_cast<std::size_t>(f.word)] |= std::uint64_t{row[f.col]}
                                               << f.shift;
    }
  }
  // Writes the nonzero-width columns of `key` into `row`; the others keep
  // what `row` held.
  void Unpack(const PackedKey& key, Key* row) const {
    for (const Field& f : fields_) {
      row[f.col] = static_cast<Key>(
          (key[static_cast<std::size_t>(f.word)] >> f.shift) & f.mask);
    }
  }
  // <0, 0 or >0 as key `a` sorts before, with or after key `b`.
  int Compare(const PackedKey& a, const PackedKey& b) const {
    for (std::size_t k = narrow() ? 1 : words(); k-- > 0;) {
      if (a[k] != b[k]) return a[k] < b[k] ? -1 : 1;
    }
    return 0;
  }
  // Whether each column's width is the bit width of its bits in `any` (the
  // OR of keys of this layout): what EncodeViewFrame records.
  bool Tight(const PackedKey& any) const;

 private:
  // One nonzero-width sort column inside a key word.
  struct Field {
    int col;  // position in the view's canonical column layout
    int word;
    int shift;
    std::uint64_t mask;
  };

  std::vector<Field> fields_;
  std::vector<int> word_bits_;
  int total_bits_ = 0;
  int key_bytes_ = 1;
};

// A frame's header.
struct FrameHeader {
  ViewId id;
  std::vector<int> order;
  bool selected = true;
  std::uint64_t epoch = 0;
  std::vector<std::uint8_t> widths;  // per sort column, order[0] first
  std::uint64_t rows = 0;
};

// Row helpers of the inline walk and Put below; not for other callers.
namespace frame_internal {

constexpr int kMeasureVarint = 10;  // bytes of a 64-bit varint

[[noreturn]] void Corrupt(const char* what);

inline void PutVarint(std::uint8_t*& out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
}

// Reads a minimal varint of at most `max_bytes` (<= 10) bytes.
inline std::uint64_t GetVarint(const std::uint8_t*& p, const std::uint8_t* end,
                               int max_bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < max_bytes; ++i) {
    if (p == end) Corrupt("truncated row");
    const std::uint8_t b = *p++;
    v |= std::uint64_t{b & 0x7fu} << (7 * i);
    if ((b & 0x80) == 0) {
      if (b == 0 && i > 0) Corrupt("non-minimal varint");
      if (i == 9 && b > 1) Corrupt("varint beyond 64 bits");
      return v;
    }
  }
  Corrupt("overlong varint");
}

inline std::uint64_t ZigZag(Measure m) {
  return (static_cast<std::uint64_t>(m) << 1) ^
         static_cast<std::uint64_t>(m >> 63);
}

inline Measure UnZigZag(std::uint64_t z) {
  return static_cast<Measure>((z >> 1) ^ (~(z & 1) + 1));
}

}  // namespace frame_internal

// Walks the rows of a frame. Construction reads and checks the header;
// ForEach reads and checks the rows. The frame's bytes must outlive the
// cursor.
class FrameCursor {
 public:
  explicit FrameCursor(std::span<const std::byte> frame);

  const FrameHeader& header() const { return header_; }
  const KeyLayout& layout() const { return layout_; }

  // Calls visit(key, measure) on each row in order, `key` packed in
  // layout(), then checks that no bytes follow the last row. Throws at the
  // first damaged row. (The walk's state is local, so the compiler keeps
  // it in registers across whatever `visit` stores.)
  template <typename Visit>
  void ForEach(Visit&& visit) {
    using frame_internal::Corrupt;
    const std::uint8_t* p = p_;
    const std::uint8_t* const end = end_;
    const std::uint64_t rows = header_.rows;
    const bool narrow = layout_.narrow();
    const int bits = layout_.total_bits();
    const int key_bytes = layout_.key_bytes();
    PackedKey narrow_key{};
    wide_key_ = {};
    for (std::uint64_t r = 0; r < rows; ++r) {
      if (narrow) {
        const std::uint64_t delta =
            frame_internal::GetVarint(p, end, key_bytes);
        const std::uint64_t key = narrow_key[0] + delta;
        if (delta == 0 && r > 0) Corrupt("key does not increase");
        if (bits < 64 ? (key >> bits) != 0 : key < narrow_key[0]) {
          Corrupt("key beyond the recorded widths");
        }
        narrow_key[0] = key;
      } else {
        p = NextWideKey(p, r > 0);
      }
      const Measure m = frame_internal::UnZigZag(
          frame_internal::GetVarint(p, end, frame_internal::kMeasureVarint));
      visit(narrow ? std::as_const(narrow_key) : std::as_const(wide_key_), m);
    }
    if (p != end) Corrupt("trailing bytes");
  }

 private:
  // Reads the multiword key delta at `p` into wide_key_; returns the byte
  // after it. `later`: not the first row.
  const std::uint8_t* NextWideKey(const std::uint8_t* p, bool later);

  // The payload; set while the header is read, so declared first.
  const std::uint8_t* p_ = nullptr;
  const std::uint8_t* end_ = nullptr;
  FrameHeader header_;
  KeyLayout layout_;
  PackedKey wide_key_{};
};

// Writes a frame from packed keys (in the layout of `header`'s widths) and
// measures. The keys must strictly increase (checked). header.rows only
// sizes the buffer: Finish records the rows Put.
class FrameEncoder {
 public:
  explicit FrameEncoder(const FrameHeader& header);

  const KeyLayout& layout() const { return layout_; }

  void Put(const PackedKey& key, Measure m) {
    if (buf_.size() - pos_ < max_row_) Grow();
    std::uint8_t* const start = reinterpret_cast<std::uint8_t*>(buf_.data());
    std::uint8_t* out = start + pos_;
    if (layout_.narrow()) {
      SNCUBE_CHECK_MSG(rows_ == 0 || key[0] > prev_[0],
                       "view frame rows must have strictly increasing keys");
      frame_internal::PutVarint(out, key[0] - prev_[0]);
      prev_[0] = key[0];
    } else {
      PutWideKey(key, out);
    }
    frame_internal::PutVarint(out, frame_internal::ZigZag(m));
    pos_ = static_cast<std::size_t>(out - start);
    ++rows_;
  }
  // The frame: the header with the rows Put, then the rows.
  ByteBuffer Finish();

 private:
  void Grow();
  void PutWideKey(const PackedKey& key, std::uint8_t*& out);

  KeyLayout layout_;
  ByteBuffer buf_;
  std::size_t rows_at_ = 0;  // offset of the header's row count
  std::size_t pos_ = 0;      // end of the rows written
  std::size_t max_row_ = 0;  // bytes of the longest row
  std::uint64_t rows_ = 0;
  PackedKey prev_{};
};

// Raises each widths[i] to the bit width of the OR of column cols[i] over
// the rows of `rel` (canonical column layout): the width pass of
// EncodeViewFrame, as the radix kernel computes widths.
void FitWidths(const Relation& rel, std::span<const int> cols,
               std::vector<std::uint8_t>& widths);

// A decoded frame: the view and the epoch its header records.
struct ViewFrame {
  std::uint64_t epoch = 0;
  ViewResult view;
};

// Encodes the view `id` whose rows are the concatenation of `parts` (rank
// parts, each a sorted range of the view in rank order; one part for a
// whole view). The bytes depend only on the concatenated rows, never on
// how they are split. The keys must strictly increase in `order` across
// all parts (checked).
ByteBuffer EncodeViewFrame(ViewId id, const std::vector<int>& order,
                           bool selected, std::uint64_t epoch,
                           std::span<const Relation* const> parts);

// The one-part case.
ByteBuffer EncodeViewFrame(const ViewResult& view, std::uint64_t epoch);

// Decodes and checks a frame; see the file comment for what it rejects.
ViewFrame DecodeViewFrame(std::span<const std::byte> bytes);

}  // namespace sncube
