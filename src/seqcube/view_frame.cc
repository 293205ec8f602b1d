#include "seqcube/view_frame.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <string>

#include "net/wire.h"

namespace sncube {
namespace {

using frame_internal::Corrupt;
using frame_internal::kMeasureVarint;

constexpr std::uint32_t kMagic = 0x534E5646;  // "SNVF"
constexpr std::uint32_t kVersion = 1;
constexpr int kKeyBits = 32;  // bits of one Key column
// The smallest row: a one-byte key delta and a one-byte measure.
constexpr std::size_t kMinRowBytes = 2;

// Bit accumulator of the multiword key path: a 64-bit key word plus the
// few bits left over from the varint group before it.
__extension__ typedef unsigned __int128 Wide;

std::uint64_t LowMask(int bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

// Reads and checks the header of `frame`; returns it with the row count
// bounded by the payload, and points [p, end) at the payload.
FrameHeader ReadHeader(std::span<const std::byte> frame,
                       const std::uint8_t*& p, const std::uint8_t*& end) {
  WireReader reader(frame);
  if (reader.Get<std::uint32_t>() != kMagic) Corrupt("bad magic");
  if (reader.Get<std::uint32_t>() != kVersion) Corrupt("unsupported version");
  FrameHeader h;
  const auto mask = reader.Get<std::uint32_t>();
  if ((mask >> ViewId::kMaxDims) != 0) Corrupt("mask beyond 20 dimensions");
  h.id = ViewId(mask);
  const auto selected = reader.Get<std::uint8_t>();
  if (selected > 1) Corrupt("bad selected flag");
  h.selected = selected == 1;
  h.epoch = reader.Get<std::uint64_t>();
  const int n = reader.Get<std::uint8_t>();
  if (n != h.id.dim_count()) Corrupt("order length disagrees with the mask");
  std::uint32_t seen = 0;
  for (int i = 0; i < n; ++i) {
    const int dim = reader.Get<std::uint8_t>();
    if (dim >= ViewId::kMaxDims || !h.id.Contains(dim) ||
        ((seen >> dim) & 1u) != 0) {
      Corrupt("order is not a permutation of the view's dimensions");
    }
    seen |= 1u << dim;
    h.order.push_back(dim);
  }
  h.widths.resize(static_cast<std::size_t>(n));
  for (std::uint8_t& w : h.widths) {
    w = reader.Get<std::uint8_t>();
    if (w > kKeyBits) Corrupt("column width above 32 bits");
  }
  h.rows = reader.Get<std::uint64_t>();
  // Bound the untrusted count by the payload before anyone allocates for it.
  if (h.rows > reader.remaining() / kMinRowBytes) {
    Corrupt("row count exceeds the payload");
  }
  const auto payload = reader.GetBytes(reader.remaining());
  p = reinterpret_cast<const std::uint8_t*>(payload.data());
  end = p + payload.size();
  return h;
}

}  // namespace

namespace frame_internal {

void Corrupt(const char* what) {
  throw SncubeCorruptionError(std::string("view frame: ") + what);
}

}  // namespace frame_internal

KeyLayout::KeyLayout(std::span<const int> cols,
                     std::span<const std::uint8_t> widths) {
  int used = 0;
  for (std::size_t i = cols.size(); i-- > 0;) {
    const int w = widths[i];
    if (w == 0) continue;
    if (word_bits_.empty() || used + w > 64) {
      word_bits_.push_back(0);
      used = 0;
    }
    fields_.push_back({cols[i], static_cast<int>(word_bits_.size()) - 1, used,
                       LowMask(w)});
    used += w;
    word_bits_.back() = used;
    total_bits_ += w;
  }
  key_bytes_ = std::max(1, (total_bits_ + 6) / 7);
}

bool KeyLayout::Tight(const PackedKey& any) const {
  return std::all_of(fields_.begin(), fields_.end(), [&](const Field& f) {
    const std::uint64_t top = (f.mask >> 1) + 1;
    return ((any[static_cast<std::size_t>(f.word)] >> f.shift) & top) != 0;
  });
}

FrameCursor::FrameCursor(std::span<const std::byte> frame)
    : header_(ReadHeader(frame, p_, end_)),
      layout_(ColumnsOf(header_.id, header_.order), header_.widths) {}

// The multiword key: one varint over the concatenated words of the delta,
// added to the key before with a carry.
const std::uint8_t* FrameCursor::NextWideKey(const std::uint8_t* p,
                                             bool later) {
  const std::size_t n = layout_.words();
  PackedKey delta;
  std::fill_n(delta.begin(), n, 0);
  Wide acc = 0;
  int acc_bits = 0;
  std::size_t k = 0;
  for (int i = 0;; ++i) {
    if (i == layout_.key_bytes()) Corrupt("overlong varint");
    if (p == end_) Corrupt("truncated row");
    const std::uint8_t b = *p++;
    acc |= static_cast<Wide>(b & 0x7fu) << acc_bits;
    acc_bits += 7;
    while (k < n && acc_bits >= layout_.word_bits(k)) {
      delta[k] =
          static_cast<std::uint64_t>(acc) & LowMask(layout_.word_bits(k));
      acc >>= layout_.word_bits(k);
      acc_bits -= layout_.word_bits(k++);
    }
    if ((b & 0x80) == 0) {
      if (b == 0 && i > 0) Corrupt("non-minimal varint");
      break;
    }
  }
  if (k < n) {
    delta[k] = static_cast<std::uint64_t>(acc);
  } else if (acc != 0) {
    Corrupt("key beyond the recorded widths");
  }
  if (later && std::all_of(delta.begin(), delta.begin() + static_cast<long>(n),
                           [](std::uint64_t w) { return w == 0; })) {
    Corrupt("key does not increase");
  }
  Wide carry = 0;
  for (k = 0; k < n; ++k) {
    const Wide sum = static_cast<Wide>(wide_key_[k]) + delta[k] + carry;
    wide_key_[k] =
        static_cast<std::uint64_t>(sum) & LowMask(layout_.word_bits(k));
    carry = sum >> layout_.word_bits(k);
  }
  if (carry != 0) Corrupt("key beyond the recorded widths");
  return p;
}

FrameEncoder::FrameEncoder(const FrameHeader& header)
    : layout_(ColumnsOf(header.id, header.order), header.widths) {
  const auto n = static_cast<std::size_t>(header.id.dim_count());
  SNCUBE_CHECK(header.order.size() == n && header.widths.size() == n);
  WirePut(buf_, kMagic);
  WirePut(buf_, kVersion);
  WirePut(buf_, header.id.mask());
  WirePut(buf_, static_cast<std::uint8_t>(header.selected ? 1 : 0));
  WirePut(buf_, header.epoch);
  WirePut(buf_, static_cast<std::uint8_t>(n));
  for (const int dim : header.order) {
    WirePut(buf_, static_cast<std::uint8_t>(dim));
  }
  for (const std::uint8_t w : header.widths) {
    SNCUBE_CHECK(w <= kKeyBits);
    WirePut(buf_, w);
  }
  rows_at_ = buf_.size();
  WirePut(buf_, std::uint64_t{0});
  pos_ = buf_.size();
  max_row_ = static_cast<std::size_t>(layout_.key_bytes()) + kMeasureVarint;
  // Dense views take about three bytes a row.
  buf_.reserve(pos_ + 3 * header.rows);
}

// Grows the buffer geometrically, so a view is encoded in one pass without
// a size pre-pass.
void FrameEncoder::Grow() {
  buf_.resize(std::max(buf_.size() + buf_.size() / 2, pos_ + max_row_));
}

// The multiword key: delta = key - prev word by word with a borrow (key >
// prev exactly when no borrow leaves the top word and some word differs),
// written as one varint over the concatenated words, least significant
// first.
void FrameEncoder::PutWideKey(const PackedKey& key, std::uint8_t*& out) {
  const std::size_t n = layout_.words();
  PackedKey delta;
  std::uint64_t borrow = 0;
  bool same = true;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t a = key[k];
    const std::uint64_t b = prev_[k];
    delta[k] = (a - b - borrow) & LowMask(layout_.word_bits(k));
    borrow = (a < b || a - b < borrow) ? 1 : 0;
    same = same && delta[k] == 0;
  }
  SNCUBE_CHECK_MSG(rows_ == 0 || (borrow == 0 && !same),
                   "view frame rows must have strictly increasing keys");
  std::copy_n(key.begin(), n, prev_.begin());

  int top = static_cast<int>(n) - 1;
  int bits = layout_.total_bits();
  while (top >= 0 && delta[static_cast<std::size_t>(top)] == 0) {
    bits -= layout_.word_bits(static_cast<std::size_t>(top--));
  }
  if (top < 0) {
    *out++ = 0;
    return;
  }
  const std::uint64_t top_word = delta[static_cast<std::size_t>(top)];
  bits -= layout_.word_bits(static_cast<std::size_t>(top)) -
          static_cast<int>(std::bit_width(top_word));
  const int bytes = (bits + 6) / 7;
  Wide acc = 0;
  int acc_bits = 0;
  std::size_t k = 0;
  for (int j = 0; j < bytes; ++j) {
    while (acc_bits < 7 && k <= static_cast<std::size_t>(top)) {
      acc |= static_cast<Wide>(delta[k]) << acc_bits;
      acc_bits += layout_.word_bits(k++);
    }
    const auto group = static_cast<std::uint8_t>(acc & 0x7f);
    *out++ = j + 1 < bytes ? group | 0x80 : group;
    acc >>= 7;
    acc_bits -= 7;
  }
}

ByteBuffer FrameEncoder::Finish() {
  buf_.resize(pos_);
  std::memcpy(buf_.data() + rows_at_, &rows_, sizeof(rows_));
  return std::move(buf_);
}

void FitWidths(const Relation& rel, std::span<const int> cols,
               std::vector<std::uint8_t>& widths) {
  std::vector<Key> any(cols.size(), 0);
  const Key* row = rel.raw_keys();
  const auto n = static_cast<std::size_t>(rel.width());
  for (std::size_t r = 0; r < rel.size(); ++r, row += n) {
    for (std::size_t i = 0; i < cols.size(); ++i) any[i] |= row[cols[i]];
  }
  for (std::size_t i = 0; i < cols.size(); ++i) {
    widths[i] = std::max(widths[i],
                         static_cast<std::uint8_t>(std::bit_width(any[i])));
  }
}

ByteBuffer EncodeViewFrame(ViewId id, const std::vector<int>& order,
                           bool selected, std::uint64_t epoch,
                           std::span<const Relation* const> parts) {
  const int n = id.dim_count();
  SNCUBE_CHECK(static_cast<int>(order.size()) == n);
  const std::vector<int> cols = ColumnsOf(id, order);
  FrameHeader header{id, order, selected, epoch, {}, 0};
  header.widths.assign(cols.size(), 0);
  for (const Relation* rel : parts) {
    SNCUBE_CHECK(rel->width() == n);
    header.rows += rel->size();
    FitWidths(*rel, cols, header.widths);
  }
  FrameEncoder encoder(header);
  const KeyLayout& layout = encoder.layout();
  PackedKey key{};
  for (const Relation* rel : parts) {
    const Key* row = rel->raw_keys();
    for (std::size_t r = 0; r < rel->size(); ++r, row += n) {
      layout.Pack(row, key);
      encoder.Put(key, rel->measure(r));
    }
  }
  return encoder.Finish();
}

ByteBuffer EncodeViewFrame(const ViewResult& view, std::uint64_t epoch) {
  const Relation* part = &view.rel;
  return EncodeViewFrame(view.id, view.order, view.selected, epoch,
                         {&part, 1});
}

ViewFrame DecodeViewFrame(std::span<const std::byte> bytes) {
  FrameCursor cursor(bytes);
  const FrameHeader& h = cursor.header();
  ViewFrame frame{h.epoch, {h.id, h.order, Relation(h.id.dim_count()),
                            h.selected}};
  Relation& rel = frame.view.rel;
  rel.Resize(static_cast<std::size_t>(h.rows));
  const KeyLayout& layout = cursor.layout();
  Key* row = rel.mutable_raw_keys();
  const auto width = static_cast<std::size_t>(rel.width());
  std::size_t r = 0;
  cursor.ForEach([&](const PackedKey& key, Measure m) {
    layout.Unpack(key, row);
    row += width;
    rel.measure(r++) = m;
  });
  return frame;
}

}  // namespace sncube
