// External-memory sort (Vitter [22]), as the clock sees it.
//
// This is the "external memory sort" local-disk primitive of the paper's
// machine model (Section 2). The rows are sorted in memory whatever their
// size; what the budget decides is the charge. Input that fits in working
// memory m costs one read and one write of its bytes. Larger input is
// charged the block transfers of the textbook external sort, which meet the
// O((n/B)·log_{m/B}(n/B)) bound: one pass that forms m-sized sorted runs,
// then (m/B − 1)-way merge passes until one run remains, which the
// consumer reads.
#pragma once

#include <span>

#include "io/disk.h"
#include "relation/relation.h"

namespace sncube {

// Sorts `input` by column order `cols` (stable) on the rank's exec pool,
// when one is installed, and charges the block transfers to `disk`.
Relation ExternalSort(const Relation& input, std::span<const int> cols,
                      DiskModel& disk);

}  // namespace sncube
