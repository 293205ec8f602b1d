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
// The frame is outside input: DecodeViewFrame bounds-checks every field and
// throws SncubeCorruptionError on a bad magic or version, an order that is
// not a permutation of the mask's dimensions, a width above 32, an overlong
// or non-minimal varint, a key that does not increase, a key beyond the
// recorded widths, a row count the payload cannot hold, and trailing bytes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "relation/serialize.h"
#include "seqcube/cube_result.h"

namespace sncube {

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
// The same into `frame`, whose relation and order keep their capacity: a
// caller decoding view after view into one frame allocates for the largest
// once.
void DecodeViewFrame(std::span<const std::byte> bytes, ViewFrame& frame);

}  // namespace sncube
