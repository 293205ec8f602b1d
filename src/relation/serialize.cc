#include "relation/serialize.h"

#include <cstring>
#include <string>

#include "common/status.h"

namespace sncube {

void SerializeRows(const Relation& rel, std::size_t begin, std::size_t end,
                   ByteBuffer& out) {
  SNCUBE_CHECK(begin <= end && end <= rel.size());
  const std::size_t row_bytes = rel.RowBytes();
  const std::size_t offset = out.size();
  out.resize(offset + (end - begin) * row_bytes);
  std::byte* dst = out.data() + offset;
  for (std::size_t row = begin; row < end; ++row) {
    const auto keys = rel.RowKeys(row);
    // Width-0 rows (the {all} view) have a null key span; memcpy's pointer
    // arguments must be non-null even for size 0.
    if (!keys.empty()) std::memcpy(dst, keys.data(), keys.size_bytes());
    dst += keys.size_bytes();
    const Measure m = rel.measure(row);
    std::memcpy(dst, &m, sizeof(m));
    dst += sizeof(m);
  }
}

ByteBuffer SerializeRelation(const Relation& rel) {
  ByteBuffer out;
  out.reserve(rel.ByteSize());
  SerializeRows(rel, 0, rel.size(), out);
  return out;
}

void DeserializeRows(std::span<const std::byte> bytes, Relation& out) {
  const std::size_t row_bytes = out.RowBytes();
  if (bytes.size() % row_bytes != 0) {
    throw SncubeCorruptionError(
        "row stream is not a whole number of rows (got " +
        std::to_string(bytes.size()) + " bytes, row size " +
        std::to_string(row_bytes) + ")");
  }
  const std::size_t rows = bytes.size() / row_bytes;
  if (rows == 0) return;
  // Size the relation once, then copy each row's keys and measure straight
  // into place.
  const std::size_t first = out.size();
  out.Resize(first + rows);
  const auto width = static_cast<std::size_t>(out.width());
  const std::size_t key_bytes = width * sizeof(Key);
  Key* keys = width == 0 ? nullptr : out.mutable_raw_keys() + first * width;
  Measure* measures = &out.measure(first);
  const std::byte* src = bytes.data();
  for (std::size_t r = 0; r < rows; ++r) {
    if (width != 0) {
      std::memcpy(keys, src, key_bytes);
      keys += width;
    }
    src += key_bytes;
    std::memcpy(measures + r, src, sizeof(Measure));
    src += sizeof(Measure);
  }
}

Relation DeserializeRelation(std::span<const std::byte> bytes, int width) {
  Relation out(width);
  DeserializeRows(bytes, out);
  return out;
}

}  // namespace sncube
