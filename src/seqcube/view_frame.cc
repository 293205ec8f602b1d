#include "seqcube/view_frame.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>

#include "common/status.h"
#include "net/wire.h"

namespace sncube {
namespace {

constexpr std::uint32_t kMagic = 0x534E5646;  // "SNVF"
constexpr std::uint32_t kVersion = 1;
constexpr int kKeyBits = 32;         // bits of one Key column
constexpr int kMeasureVarint = 10;   // bytes of a 64-bit varint
// The smallest row: a one-byte key delta and a one-byte measure.
constexpr std::size_t kMinRowBytes = 2;

// Bit accumulator of the multiword key path: a 64-bit key word plus the
// few bits left over from the varint group before it.
__extension__ typedef unsigned __int128 Wide;

[[noreturn]] void Corrupt(const char* what) {
  throw SncubeCorruptionError(std::string("view frame: ") + what);
}

std::uint64_t LowMask(int bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

std::uint64_t ZigZag(Measure m) {
  return (static_cast<std::uint64_t>(m) << 1) ^
         static_cast<std::uint64_t>(m >> 63);
}

Measure UnZigZag(std::uint64_t z) {
  return static_cast<Measure>((z >> 1) ^ (~(z & 1) + 1));
}

// One nonzero-width sort column inside a key word.
struct Field {
  int col;  // position in the view's canonical column layout
  int word;
  int shift;
  std::uint64_t mask;
};

// Where each sort column sits in the packed key. Words are cut at column
// boundaries, filled greedily from the least significant column; word 0 is
// the least significant. Zero-width columns occupy no bits.
struct KeyLayout {
  std::vector<Field> fields;
  std::vector<int> word_bits;
  int total_bits = 0;
  int key_bytes = 1;  // bytes of the longest key-delta varint

  KeyLayout(std::span<const int> cols, std::span<const std::uint8_t> widths) {
    int used = 0;
    for (std::size_t i = cols.size(); i-- > 0;) {
      const int w = widths[i];
      if (w == 0) continue;
      if (word_bits.empty() || used + w > 64) {
        word_bits.push_back(0);
        used = 0;
      }
      fields.push_back({cols[i], static_cast<int>(word_bits.size()) - 1, used,
                        LowMask(w)});
      used += w;
      word_bits.back() = used;
      total_bits += w;
    }
    key_bytes = std::max(1, (total_bits + 6) / 7);
  }

  bool narrow() const { return word_bits.size() <= 1; }
};

using KeyWords = std::array<std::uint64_t, ViewId::kMaxDims>;

void PutVarint(std::uint8_t*& out, std::uint64_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<std::uint8_t>(v | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(v);
}

// Reads a minimal varint of at most `max_bytes` (<= 10) bytes.
std::uint64_t GetVarint(const std::uint8_t*& p, const std::uint8_t* end,
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

// The varint of a multiword value: words least significant first, word k
// holding word_bits[k] bits of the concatenated value.
void PutWideVarint(std::uint8_t*& out, const KeyLayout& layout,
                   const KeyWords& words) {
  int top = static_cast<int>(layout.word_bits.size()) - 1;
  int bits = layout.total_bits;
  while (top >= 0 && words[static_cast<std::size_t>(top)] == 0) {
    bits -= layout.word_bits[static_cast<std::size_t>(top--)];
  }
  if (top < 0) {
    *out++ = 0;
    return;
  }
  const std::uint64_t top_word = words[static_cast<std::size_t>(top)];
  bits -= layout.word_bits[static_cast<std::size_t>(top)] -
          static_cast<int>(std::bit_width(top_word));
  const int bytes = (bits + 6) / 7;
  Wide acc = 0;
  int acc_bits = 0;
  std::size_t k = 0;
  for (int j = 0; j < bytes; ++j) {
    while (acc_bits < 7 && k <= static_cast<std::size_t>(top)) {
      acc |= static_cast<Wide>(words[k]) << acc_bits;
      acc_bits += layout.word_bits[k++];
    }
    const auto group = static_cast<std::uint8_t>(acc & 0x7f);
    *out++ = j + 1 < bytes ? group | 0x80 : group;
    acc >>= 7;
    acc_bits -= 7;
  }
}

void GetWideVarint(const std::uint8_t*& p, const std::uint8_t* end,
                   const KeyLayout& layout, KeyWords& words) {
  const std::size_t n = layout.word_bits.size();
  std::fill_n(words.begin(), n, 0);
  Wide acc = 0;
  int acc_bits = 0;
  std::size_t k = 0;
  for (int i = 0;; ++i) {
    if (i == layout.key_bytes) Corrupt("overlong varint");
    if (p == end) Corrupt("truncated row");
    const std::uint8_t b = *p++;
    acc |= static_cast<Wide>(b & 0x7fu) << acc_bits;
    acc_bits += 7;
    while (k < n && acc_bits >= layout.word_bits[k]) {
      words[k] = static_cast<std::uint64_t>(acc) & LowMask(layout.word_bits[k]);
      acc >>= layout.word_bits[k];
      acc_bits -= layout.word_bits[k++];
    }
    if ((b & 0x80) == 0) {
      if (b == 0 && i > 0) Corrupt("non-minimal varint");
      break;
    }
  }
  if (k < n) {
    words[k] = static_cast<std::uint64_t>(acc);
  } else if (acc != 0) {
    Corrupt("key beyond the recorded widths");
  }
}

// Appends rows to a buffer that grows geometrically, so a view is encoded
// in one pass without a size pre-pass.
class RowSink {
 public:
  RowSink(ByteBuffer& buf, std::size_t max_row_bytes)
      : buf_(buf), max_row_(max_row_bytes), pos_(buf.size()) {}

  std::uint8_t* Row() {
    if (buf_.size() - pos_ < max_row_) {
      buf_.resize(std::max(buf_.size() + buf_.size() / 2, pos_ + max_row_));
    }
    return reinterpret_cast<std::uint8_t*>(buf_.data()) + pos_;
  }
  void Commit(const std::uint8_t* end) {
    pos_ = static_cast<std::size_t>(
        end - reinterpret_cast<const std::uint8_t*>(buf_.data()));
  }
  void Finish() { buf_.resize(pos_); }

 private:
  ByteBuffer& buf_;
  std::size_t max_row_;
  std::size_t pos_;
};

void EncodeNarrowRows(const KeyLayout& layout,
                      std::span<const Relation* const> parts, RowSink& sink) {
  std::uint64_t prev = 0;
  bool first = true;
  for (const Relation* rel : parts) {
    const Key* keys = rel->raw_keys();
    const auto width = static_cast<std::size_t>(rel->width());
    for (std::size_t r = 0; r < rel->size(); ++r) {
      const Key* row = keys + r * width;
      std::uint64_t key = 0;
      for (const Field& f : layout.fields) {
        key |= std::uint64_t{row[f.col]} << f.shift;
      }
      SNCUBE_CHECK_MSG(first || key > prev,
                       "view frame rows must have strictly increasing keys");
      std::uint8_t* out = sink.Row();
      PutVarint(out, key - prev);
      PutVarint(out, ZigZag(rel->measure(r)));
      sink.Commit(out);
      prev = key;
      first = false;
    }
  }
}

void EncodeWideRows(const KeyLayout& layout,
                    std::span<const Relation* const> parts, RowSink& sink) {
  const std::size_t n = layout.word_bits.size();
  KeyWords prev{};
  KeyWords key{};
  KeyWords delta{};
  bool first = true;
  for (const Relation* rel : parts) {
    const Key* keys = rel->raw_keys();
    const auto width = static_cast<std::size_t>(rel->width());
    for (std::size_t r = 0; r < rel->size(); ++r) {
      const Key* row = keys + r * width;
      std::fill_n(key.begin(), n, 0);
      for (const Field& f : layout.fields) {
        key[static_cast<std::size_t>(f.word)] |= std::uint64_t{row[f.col]}
                                                 << f.shift;
      }
      // delta = key - prev, word by word with a borrow; key > prev exactly
      // when no borrow leaves the top word and some word differs.
      std::uint64_t borrow = 0;
      bool same = true;
      for (std::size_t k = 0; k < n; ++k) {
        const std::uint64_t a = key[k];
        const std::uint64_t b = prev[k];
        delta[k] = (a - b - borrow) & LowMask(layout.word_bits[k]);
        borrow = (a < b || a - b < borrow) ? 1 : 0;
        same = same && delta[k] == 0;
      }
      SNCUBE_CHECK_MSG(first || (borrow == 0 && !same),
                       "view frame rows must have strictly increasing keys");
      std::uint8_t* out = sink.Row();
      PutWideVarint(out, layout, delta);
      PutVarint(out, ZigZag(rel->measure(r)));
      sink.Commit(out);
      prev = key;
      first = false;
    }
  }
}

void DecodeNarrowRows(const KeyLayout& layout, const std::uint8_t* p,
                      const std::uint8_t* end, Relation& rel) {
  Key* keys = rel.mutable_raw_keys();
  const auto width = static_cast<std::size_t>(rel.width());
  const int bits = layout.total_bits;
  std::uint64_t prev = 0;
  for (std::size_t r = 0; r < rel.size(); ++r) {
    const std::uint64_t delta = GetVarint(p, end, layout.key_bytes);
    const std::uint64_t key = prev + delta;
    if (r > 0 && delta == 0) Corrupt("key does not increase");
    if (bits < 64 ? (key >> bits) != 0 : key < prev) {
      Corrupt("key beyond the recorded widths");
    }
    Key* row = keys + r * width;
    for (const Field& f : layout.fields) {
      row[f.col] = static_cast<Key>((key >> f.shift) & f.mask);
    }
    rel.measure(r) = UnZigZag(GetVarint(p, end, kMeasureVarint));
    prev = key;
  }
  if (p != end) Corrupt("trailing bytes");
}

void DecodeWideRows(const KeyLayout& layout, const std::uint8_t* p,
                    const std::uint8_t* end, Relation& rel) {
  Key* keys = rel.mutable_raw_keys();
  const auto width = static_cast<std::size_t>(rel.width());
  const std::size_t n = layout.word_bits.size();
  KeyWords key{};
  KeyWords delta{};
  for (std::size_t r = 0; r < rel.size(); ++r) {
    GetWideVarint(p, end, layout, delta);
    if (r > 0 && std::all_of(delta.begin(), delta.begin() + n,
                             [](std::uint64_t w) { return w == 0; })) {
      Corrupt("key does not increase");
    }
    // key += delta, word by word with a carry.
    Wide carry = 0;
    for (std::size_t k = 0; k < n; ++k) {
      const Wide sum = static_cast<Wide>(key[k]) + delta[k] + carry;
      key[k] = static_cast<std::uint64_t>(sum) & LowMask(layout.word_bits[k]);
      carry = sum >> layout.word_bits[k];
    }
    if (carry != 0) Corrupt("key beyond the recorded widths");
    Key* row = keys + r * width;
    for (const Field& f : layout.fields) {
      row[f.col] = static_cast<Key>(
          (key[static_cast<std::size_t>(f.word)] >> f.shift) & f.mask);
    }
    rel.measure(r) = UnZigZag(GetVarint(p, end, kMeasureVarint));
  }
  if (p != end) Corrupt("trailing bytes");
}

// Reads and checks the header into frame's id, selected flag, epoch and
// order, and `widths`; returns the row count, bounded by the payload, and
// leaves `reader` at the first row.
std::uint64_t ReadHeader(WireReader& reader, ViewFrame& frame,
                         std::vector<std::uint8_t>& widths) {
  if (reader.Get<std::uint32_t>() != kMagic) Corrupt("bad magic");
  if (reader.Get<std::uint32_t>() != kVersion) Corrupt("unsupported version");
  ViewResult& vr = frame.view;
  const auto mask = reader.Get<std::uint32_t>();
  if ((mask >> ViewId::kMaxDims) != 0) Corrupt("mask beyond 20 dimensions");
  vr.id = ViewId(mask);
  const auto selected = reader.Get<std::uint8_t>();
  if (selected > 1) Corrupt("bad selected flag");
  vr.selected = selected == 1;
  frame.epoch = reader.Get<std::uint64_t>();
  const int n = reader.Get<std::uint8_t>();
  if (n != vr.id.dim_count()) Corrupt("order length disagrees with the mask");
  std::uint32_t seen = 0;
  vr.order.clear();
  for (int i = 0; i < n; ++i) {
    const int dim = reader.Get<std::uint8_t>();
    if (dim >= ViewId::kMaxDims || !vr.id.Contains(dim) ||
        ((seen >> dim) & 1u) != 0) {
      Corrupt("order is not a permutation of the view's dimensions");
    }
    seen |= 1u << dim;
    vr.order.push_back(dim);
  }
  widths.resize(static_cast<std::size_t>(n));
  for (std::uint8_t& w : widths) {
    w = reader.Get<std::uint8_t>();
    if (w > kKeyBits) Corrupt("column width above 32 bits");
  }
  const auto rows = reader.Get<std::uint64_t>();
  // Bound the untrusted count by the payload before allocating for it.
  if (rows > reader.remaining() / kMinRowBytes) {
    Corrupt("row count exceeds the payload");
  }
  return rows;
}

}  // namespace

ByteBuffer EncodeViewFrame(ViewId id, const std::vector<int>& order,
                           bool selected, std::uint64_t epoch,
                           std::span<const Relation* const> parts) {
  const int n = id.dim_count();
  SNCUBE_CHECK(static_cast<int>(order.size()) == n);
  const std::vector<int> cols = ColumnsOf(id, order);
  // Observed width of every sort column over all parts, as the radix
  // kernel computes it.
  std::vector<Key> any(cols.size(), 0);
  std::uint64_t rows = 0;
  for (const Relation* rel : parts) {
    SNCUBE_CHECK(rel->width() == n);
    rows += rel->size();
    const Key* keys = rel->raw_keys();
    for (std::size_t r = 0; r < rel->size(); ++r) {
      const Key* row = keys + r * static_cast<std::size_t>(n);
      for (std::size_t i = 0; i < cols.size(); ++i) any[i] |= row[cols[i]];
    }
  }
  std::vector<std::uint8_t> widths(cols.size());
  for (std::size_t i = 0; i < cols.size(); ++i) {
    widths[i] = static_cast<std::uint8_t>(std::bit_width(any[i]));
  }
  const KeyLayout layout(cols, widths);

  ByteBuffer buf;
  WirePut(buf, kMagic);
  WirePut(buf, kVersion);
  WirePut(buf, id.mask());
  WirePut(buf, static_cast<std::uint8_t>(selected ? 1 : 0));
  WirePut(buf, epoch);
  WirePut(buf, static_cast<std::uint8_t>(n));
  for (const int dim : order) WirePut(buf, static_cast<std::uint8_t>(dim));
  for (const std::uint8_t w : widths) WirePut(buf, w);
  WirePut(buf, rows);
  // Dense views take about three bytes a row.
  buf.reserve(buf.size() + 3 * rows);
  RowSink sink(buf, static_cast<std::size_t>(layout.key_bytes) +
                        kMeasureVarint);
  if (layout.narrow()) {
    EncodeNarrowRows(layout, parts, sink);
  } else {
    EncodeWideRows(layout, parts, sink);
  }
  sink.Finish();
  return buf;
}

ByteBuffer EncodeViewFrame(const ViewResult& view, std::uint64_t epoch) {
  const Relation* part = &view.rel;
  return EncodeViewFrame(view.id, view.order, view.selected, epoch,
                         {&part, 1});
}

void DecodeViewFrame(std::span<const std::byte> bytes, ViewFrame& frame) {
  WireReader reader(bytes);
  std::vector<std::uint8_t> widths;
  const std::uint64_t rows = ReadHeader(reader, frame, widths);
  ViewResult& vr = frame.view;
  const auto payload = reader.GetBytes(reader.remaining());
  const auto* p = reinterpret_cast<const std::uint8_t*>(payload.data());
  const KeyLayout layout(ColumnsOf(vr.id, vr.order), widths);
  vr.rel.Reset(vr.id.dim_count());
  vr.rel.Resize(static_cast<std::size_t>(rows));
  if (layout.narrow()) {
    DecodeNarrowRows(layout, p, p + payload.size(), vr.rel);
  } else {
    DecodeWideRows(layout, p, p + payload.size(), vr.rel);
  }
}

ViewFrame DecodeViewFrame(std::span<const std::byte> bytes) {
  ViewFrame frame;
  DecodeViewFrame(bytes, frame);
  return frame;
}

}  // namespace sncube
