// Row (de)serialization: the wire format used for every inter-processor
// transfer.
//
// A row of width w serializes to w little-endian uint32 keys followed by an
// int64 measure — the same 4w+8 bytes Relation::RowBytes() reports, so
// communication-volume accounting matches the bytes actually moved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "relation/relation.h"

namespace sncube {

using ByteBuffer = std::vector<std::byte>;

// Appends rows [begin, end) of `rel` to `out`.
void SerializeRows(const Relation& rel, std::size_t begin, std::size_t end,
                   ByteBuffer& out);

// Serializes the whole relation.
ByteBuffer SerializeRelation(const Relation& rel);

// Parses rows of the given width from `bytes`, appending to `out`.
// bytes.size() must be a multiple of the row size.
void DeserializeRows(std::span<const std::byte> bytes, Relation& out);

// Convenience: parse into a fresh relation of the given width.
Relation DeserializeRelation(std::span<const std::byte> bytes, int width);

}  // namespace sncube
