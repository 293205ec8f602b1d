#include "schedule/schedule_tree.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>

#include "common/status.h"
#include "net/wire.h"

namespace sncube {

double ScanCost(double rows) { return rows; }

bool ScanEligible(const ScheduleNode& parent, ViewId child) {
  if (!child.IsProperSubsetOf(parent.view)) return false;
  if (!parent.order_fixed) return true;
  const int k = child.dim_count();
  for (int i = 0; i < k; ++i) {
    if (!child.Contains(parent.order[i])) return false;
  }
  return true;
}

double SortCost(double rows) {
  return rows * std::log2(std::max(rows, 2.0));
}

int ScheduleTree::AddRoot(ViewId root, std::vector<int> order,
                          double est_rows, bool selected) {
  SNCUBE_CHECK_MSG(nodes_.empty(), "root must be the first node");
  ScheduleNode n;
  n.view = root;
  n.order = std::move(order);
  n.edge = EdgeKind::kRoot;
  n.selected = selected;
  n.order_fixed = true;
  n.est_rows = est_rows;
  // The imposed order must permute the root's dimensions.
  std::vector<int> sorted = n.order;
  std::sort(sorted.begin(), sorted.end());
  SNCUBE_CHECK_MSG(sorted == root.DimList(), "root order must permute root");
  nodes_.push_back(std::move(n));
  return 0;
}

int ScheduleTree::AddChild(int parent, ViewId view, EdgeKind edge,
                           double est_rows, bool selected) {
  SNCUBE_CHECK(parent >= 0 && parent < size());
  SNCUBE_CHECK(edge == EdgeKind::kScan || edge == EdgeKind::kSort);
  ScheduleNode& p = nodes_[parent];
  SNCUBE_CHECK_MSG(view.IsProperSubsetOf(p.view),
                   "child must be a proper subset of its parent");
  if (edge == EdgeKind::kScan) {
    SNCUBE_CHECK_MSG(ScanChild(parent) < 0,
                     "a node can feed at most one scan child");
  }

  ScheduleNode n;
  n.view = view;
  n.parent = parent;
  n.edge = edge;
  n.selected = selected;
  n.est_rows = est_rows;
  if (edge == EdgeKind::kScan && p.order_fixed) {
    // The child is the prefix of the parent's imposed order.
    const int k = view.dim_count();
    SNCUBE_CHECK(static_cast<int>(p.order.size()) >= k);
    std::vector<int> prefix(p.order.begin(), p.order.begin() + k);
    std::vector<int> sorted = prefix;
    std::sort(sorted.begin(), sorted.end());
    SNCUBE_CHECK_MSG(sorted == view.DimList(),
                     "scan child of an order-fixed parent must be its prefix");
    n.order = std::move(prefix);
    n.order_fixed = true;
  }
  const int index = size();
  nodes_.push_back(std::move(n));
  nodes_[parent].children.push_back(index);
  return index;
}

void ScheduleTree::ResolveOrders() {
  // A free node adopts its scan child's order followed by its remaining
  // dimensions; scan chains bottom out at nodes with no scan child, which
  // take their canonical order.
  std::function<void(int)> resolve = [&](int i) {
    ScheduleNode& n = nodes_[i];
    if (!n.order.empty()) return;
    const int sc = ScanChild(i);
    if (sc < 0) {
      n.order = n.view.DimList();
      return;
    }
    resolve(sc);
    std::vector<int> order = nodes_[sc].order;
    for (int dim : n.view.DimList()) {
      if (!nodes_[sc].view.Contains(dim)) order.push_back(dim);
    }
    n.order = std::move(order);
  };
  for (int i = 0; i < size(); ++i) resolve(i);
}

int ScheduleTree::ScanChild(int i) const {
  for (int c : nodes_.at(i).children) {
    if (nodes_[c].edge == EdgeKind::kScan) return c;
  }
  return -1;
}

int ScheduleTree::Find(ViewId view) const {
  for (int i = 0; i < size(); ++i) {
    if (nodes_[i].view == view) return i;
  }
  return -1;
}

double ScheduleTree::EstimatedCost() const {
  double cost = 0;
  for (const auto& n : nodes_) {
    if (n.parent < 0) continue;
    const double parent_rows = nodes_[n.parent].est_rows;
    cost += (n.edge == EdgeKind::kScan) ? ScanCost(parent_rows)
                                        : SortCost(parent_rows);
  }
  return cost;
}

int ScheduleTree::SelectedCount() const {
  int count = 0;
  for (const auto& n : nodes_) count += n.selected ? 1 : 0;
  return count;
}

void ScheduleTree::Validate() const {
  SNCUBE_CHECK_MSG(!nodes_.empty(), "empty schedule tree");
  SNCUBE_CHECK(nodes_[0].parent == -1 && nodes_[0].edge == EdgeKind::kRoot);
  for (int i = 0; i < size(); ++i) {
    const ScheduleNode& n = nodes_[i];
    if (i != 0) {
      SNCUBE_CHECK(n.parent >= 0 && n.parent < i);  // topological order
      SNCUBE_CHECK(n.edge != EdgeKind::kRoot);
      const ScheduleNode& p = nodes_[n.parent];
      SNCUBE_CHECK_MSG(n.view.IsProperSubsetOf(p.view),
                       "child view not a proper subset of parent");
      const auto& kids = p.children;
      SNCUBE_CHECK(std::find(kids.begin(), kids.end(), i) != kids.end());
    }
    // Order permutes the node's dimensions.
    std::vector<int> sorted = n.order;
    std::sort(sorted.begin(), sorted.end());
    SNCUBE_CHECK_MSG(sorted == n.view.DimList(),
                     "node order is not a permutation of its dims");
    // At most one scan child; every scan child is a prefix of this order.
    int scans = 0;
    for (int c : n.children) {
      SNCUBE_CHECK(c > i && c < size());
      SNCUBE_CHECK(nodes_[c].parent == i);
      if (nodes_[c].edge == EdgeKind::kScan) {
        ++scans;
        const auto& child_order = nodes_[c].order;
        SNCUBE_CHECK(child_order.size() <= n.order.size());
        for (std::size_t k = 0; k < child_order.size(); ++k) {
          SNCUBE_CHECK_MSG(child_order[k] == n.order[k],
                           "scan child order is not a parent-order prefix");
        }
      }
    }
    SNCUBE_CHECK_MSG(scans <= 1, "more than one scan child");
  }
}

ByteBuffer ScheduleTree::Serialize() const {
  ByteBuffer buf;
  WirePut(buf, static_cast<std::uint32_t>(nodes_.size()));
  for (const auto& n : nodes_) {
    WirePut(buf, n.view.mask());
    WirePut(buf, static_cast<std::int32_t>(n.parent));
    WirePut(buf, static_cast<std::uint8_t>(n.edge));
    WirePut(buf, static_cast<std::uint8_t>(n.selected ? 1 : 0));
    WirePut(buf, static_cast<std::uint8_t>(n.order_fixed ? 1 : 0));
    WirePut(buf, n.est_rows);
    std::vector<std::uint8_t> order(n.order.begin(), n.order.end());
    WirePutVector(buf, order);
  }
  return buf;
}

ScheduleTree ScheduleTree::Deserialize(const ByteBuffer& bytes) {
  ScheduleTree tree;
  WireReader r(bytes);
  const auto count = r.Get<std::uint32_t>();
  // A node takes at least 27 bytes (its fields and an empty order); bound
  // the untrusted count by the payload before reserving for it.
  constexpr std::size_t kMinNodeBytes = 4 + 4 + 1 + 1 + 1 + 8 + 8;
  if (count > r.remaining() / kMinNodeBytes) {
    throw SncubeCorruptionError("schedule tree: node count exceeds payload");
  }
  tree.nodes_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ScheduleNode n;
    n.view = ViewId(r.Get<std::uint32_t>());
    n.parent = r.Get<std::int32_t>();
    n.edge = static_cast<EdgeKind>(r.Get<std::uint8_t>());
    n.selected = r.Get<std::uint8_t>() != 0;
    n.order_fixed = r.Get<std::uint8_t>() != 0;
    n.est_rows = r.Get<double>();
    const auto order = r.GetVector<std::uint8_t>();
    n.order.assign(order.begin(), order.end());
    tree.nodes_.push_back(std::move(n));
  }
  if (!r.AtEnd()) {
    throw SncubeCorruptionError("schedule tree: trailing bytes");
  }
  // Rebuild children lists from parents. Parent indices come off the wire,
  // so validate before indexing: node 0 is the root (parent -1), every later
  // node must point at an earlier one (topological order).
  if (!tree.nodes_.empty() && tree.nodes_[0].parent != -1) {
    throw SncubeCorruptionError("schedule tree: node 0 is not a root");
  }
  for (int i = 1; i < tree.size(); ++i) {
    const int parent = tree.nodes_[i].parent;
    if (parent < 0 || parent >= i) {
      throw SncubeCorruptionError("schedule tree: parent index out of range");
    }
    tree.nodes_[parent].children.push_back(i);
  }
  return tree;
}

std::string ScheduleTree::ToDot(const Schema& schema) const {
  std::ostringstream os;
  os << "digraph schedule {\n  rankdir=TB;\n  node [shape=box];\n";
  for (int i = 0; i < size(); ++i) {
    const ScheduleNode& n = nodes_[i];
    os << "  n" << i << " [label=\"" << n.view.Name(schema) << "\\n~"
       << static_cast<long long>(n.est_rows) << " rows\"";
    if (!n.selected) os << ", style=dashed";
    os << "];\n";
    if (n.parent >= 0) {
      os << "  n" << n.parent << " -> n" << i;
      if (n.edge == EdgeKind::kScan) {
        os << " [style=bold, label=\"scan\"]";
      } else {
        os << " [label=\"sort\"]";
      }
      os << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string ScheduleTree::ToString(const Schema& schema) const {
  std::ostringstream os;
  std::function<void(int, int)> print = [&](int i, int depth) {
    const ScheduleNode& n = nodes_[i];
    for (int k = 0; k < depth; ++k) os << "  ";
    os << (n.edge == EdgeKind::kScan   ? "scan "
           : n.edge == EdgeKind::kSort ? "sort "
                                       : "root ");
    os << n.view.Name(schema);
    os << " [order ";
    for (std::size_t k = 0; k < n.order.size(); ++k) {
      os << (k ? "," : "") << schema.name(n.order[k]);
    }
    os << "] ~" << static_cast<long long>(n.est_rows) << " rows";
    if (!n.selected) os << " (aux)";
    os << "\n";
    for (int c : n.children) print(c, depth + 1);
  };
  print(0, 0);
  return os.str();
}

}  // namespace sncube
