// Schedule trees (Figure 1b/1c of the paper).
//
// A schedule tree says in which order, and by which operation, the views of
// one Di-partition are materialized. Nodes are views; the root is the
// Di-root. An edge (u → v) is labelled:
//
//   * kScan — v's dimensions are a prefix of u's sort order, so v falls out
//     of a single linear scan of u (bold edges in Figure 1b); or
//   * kSort — u must be re-sorted into an order beginning with v's
//     dimensions, after which v (and v's own scan chain) is emitted.
//
// Every node carries a sort order: the permutation of its dimensions its
// rows are sorted by when materialized. The root's order is imposed from
// outside (the global sample sort of Step 1b sorts the Di-root by
// Di,...,Dd-1); orders of nodes on the root's scan chain are therefore fixed
// prefixes of it, while other nodes' orders are chosen by the builder to
// make their own scan chains work.
//
// Trees are value types, serializable for Step 2b's broadcast ("processor
// P0 broadcasts Ti to P1..Pp-1").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lattice/estimate.h"
#include "lattice/view_id.h"
#include "relation/serialize.h"

namespace sncube {

enum class EdgeKind : std::uint8_t { kRoot, kScan, kSort };

struct ScheduleNode {
  ViewId view;
  // Sort order: global dimension indices, a permutation of view.DimList().
  // Empty until resolved (ResolveOrders fills free nodes).
  std::vector<int> order;
  int parent = -1;
  EdgeKind edge = EdgeKind::kRoot;
  std::vector<int> children;
  // Partial cubes: false for auxiliary intermediates that are computed but
  // not part of the requested output (Section 3 / Figure 1c).
  bool selected = true;
  // Whether the order was imposed (root, or scan-chained from a fixed node)
  // rather than chosen freely by the builder.
  bool order_fixed = false;
  double est_rows = 0;
};

class ScheduleTree {
 public:
  ScheduleTree() = default;

  // Creates the root node (index 0). `order` must permute root.DimList().
  int AddRoot(ViewId root, std::vector<int> order, double est_rows,
              bool selected = true);

  // Adds a view under `parent`. For kScan edges with an order-fixed parent,
  // the child's order (the parent-order prefix) is assigned and fixed here;
  // otherwise the child's order stays empty until ResolveOrders.
  int AddChild(int parent, ViewId view, EdgeKind edge, double est_rows,
               bool selected = true);

  // Fills in the orders of all free nodes: a node with a scan child adopts
  // (child order) ++ (own remaining dims, canonical); a node without one
  // uses its canonical order. Must be called once after construction.
  void ResolveOrders();

  int size() const { return static_cast<int>(nodes_.size()); }
  const ScheduleNode& node(int i) const { return nodes_.at(i); }

  static constexpr int kRootIndex = 0;
  const ScheduleNode& root() const { return nodes_.at(0); }

  // Index of i's scan child, or -1.
  int ScanChild(int i) const;

  // Index of the node for `view`, or -1.
  int Find(ViewId view) const;

  // Estimated construction cost: Σ over edges of A(parent) for scans and
  // S(parent) for sorts (A = parent row estimate, S = A·log2(A)). Used to
  // compare candidate trees and in tests.
  double EstimatedCost() const;

  // Number of selected (non-auxiliary) views, root included if selected.
  int SelectedCount() const;

  // Throws SncubeError when any invariant is violated: parent/child
  // consistency, child ⊊ parent, orders permute the node's dims, scan
  // prefix property, at most one scan child per node.
  void Validate() const;

  ByteBuffer Serialize() const;
  static ScheduleTree Deserialize(const ByteBuffer& bytes);

  // Multi-line human-readable rendering (examples / debugging).
  std::string ToString(const Schema& schema) const;

  // Graphviz rendering: bold edges = scans (the paper's Figure 1b
  // convention), dashed boxes = auxiliary views. Pipe into `dot -Tsvg`.
  std::string ToDot(const Schema& schema) const;

 private:
  std::vector<ScheduleNode> nodes_;
};

// Sort cost model shared by the builders: a view of r rows costs r to scan
// and r·log2(max(r,2)) to sort.
double ScanCost(double rows);
double SortCost(double rows);

// True when `child` could be produced from `parent` by a linear scan: a
// free-order parent can put any proper subset's dims first; an order-fixed
// parent only scans out prefixes of its imposed order. (Whether the parent
// still has its single scan slot is the caller's concern.)
bool ScanEligible(const ScheduleNode& parent, ViewId child);

}  // namespace sncube
