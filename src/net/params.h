// Machine cost parameters for the simulated shared-nothing cluster.
//
// The paper's testbed: 16× 1.8 GHz Xeon nodes, 512 MB RAM, 7200 RPM IDE
// disks, interconnected by a 100 Mb Ethernet switch — a machine where
// "communication speed is extremely slow in comparison to computation
// speed" (Section 4). The presets below encode those ratios. The BSP clock
// (see cluster.h) turns *measured* per-rank operation counts into simulated
// seconds with these constants; only the constants are assumed, never the
// counts.
#pragma once

#include <cstddef>

namespace sncube {

struct CostParams {
  // The CPU/disk constants are calibrated against the paper's measured
  // absolutes: their sequential Pipesort (the Figure 5 baseline) processes
  // the 2M-row input into a 227M-row cube at ≈ 21 µs per output row on the
  // 1.8 GHz Xeon + LEDA stack, and the 16-node build lands under 6 minutes.
  // The per-record costs are far above raw instruction counts — that is
  // what LEDA-era tuple/hash handling cost — and getting them right is what
  // makes the compute:communication ratio, and hence every speedup shape,
  // match their testbed.
  //
  // CPU: seconds per record touched by a linear aggregation scan.
  double cpu_scan_record_s = 4.0e-6;
  // CPU: seconds per record per comparison level; a sort of n records costs
  // cpu_sort_record_s * n * log2(n).
  double cpu_sort_record_s = 5.0e-7;
  // Disk: seconds per block transfer (8 KiB at ~16 MB/s incl. seeks).
  double disk_block_s = 5.0e-4;
  // Network: per-collective latency term (switch + MPI software overhead).
  double net_latency_s = 2.0e-4;
  // Network: seconds per byte through one node's link. 100 Mbit Ethernet
  // ≈ 12.5 MB/s payload → 8e-8 s/B.
  double net_byte_s = 8.0e-8;
  // CPU: seconds per byte checksummed (CRC32C, slice-by-8). ~1 byte/cycle
  // on the 1.8 GHz Xeon → ~5.5e-10; rounded up for table-cache effects.
  // Charged wherever durable artifacts are sealed or verified, so integrity
  // overhead shows up honestly in the checkpoint phase tables.
  double cpu_crc_byte_s = 1.0e-9;
};

// The paper's cluster: slow 100 Mb interconnect.
inline CostParams FastEthernetBeowulf() { return CostParams{}; }

// The upgrade the paper anticipates ("1 Gigabyte Ethernet interconnect"):
// 10× link bandwidth, lower latency.
inline CostParams GigabitBeowulf() {
  CostParams p;
  p.net_byte_s = 8.0e-9;
  p.net_latency_s = 2.0e-4;
  return p;
}

}  // namespace sncube
