#include "relation/csv.h"

#include <charconv>
#include <istream>
#include <ostream>
#include <string_view>

#include "common/status.h"

namespace sncube {
namespace {

[[noreturn]] void BadCsv(std::size_t line, const std::string& what) {
  throw SncubeCorruptionError("CSV line " + std::to_string(line) + ": " +
                              what);
}

// Parses the whole of `cell` as a T, or names the line and column and
// throws: std::from_chars rejects signs on unsigned types, values out of
// range, empty and non-numeric cells; the full-length test rejects trailing
// garbage.
template <typename T>
T ParseCell(std::string_view cell, std::size_t line, int column,
            const char* type) {
  T value{};
  const auto [end, ec] =
      std::from_chars(cell.data(), cell.data() + cell.size(), value);
  if (ec != std::errc{} || end != cell.data() + cell.size()) {
    BadCsv(line, "column " + std::to_string(column + 1) + " \"" +
                     std::string(cell) + "\" is not " + type);
  }
  return value;
}

// `line` without a trailing CR, so CRLF files read like LF files.
std::string_view StripCr(const std::string& line) {
  std::string_view view(line);
  if (!view.empty() && view.back() == '\r') view.remove_suffix(1);
  return view;
}

}  // namespace

void WriteCsv(std::ostream& os, const Relation& rel,
              const std::vector<std::string>& names,
              const std::string& measure_name) {
  SNCUBE_CHECK(static_cast<int>(names.size()) == rel.width());
  for (const auto& n : names) os << n << ',';
  os << measure_name << '\n';
  for (std::size_t row = 0; row < rel.size(); ++row) {
    for (Key k : rel.RowKeys(row)) os << k << ',';
    os << rel.measure(row) << '\n';
  }
}

Relation ReadCsv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) BadCsv(1, "missing header");
  int columns = 1;
  for (char c : StripCr(line)) {
    if (c == ',') ++columns;
  }
  const int width = columns - 1;

  Relation rel(width);
  std::vector<Key> keys(static_cast<std::size_t>(width));
  for (std::size_t line_no = 2; std::getline(is, line); ++line_no) {
    std::string_view rest = StripCr(line);
    if (rest.empty()) continue;
    for (int c = 0; c < width; ++c) {
      const std::size_t comma = rest.find(',');
      if (comma == std::string_view::npos) {
        BadCsv(line_no, "expected " + std::to_string(columns) + " cells");
      }
      keys[static_cast<std::size_t>(c)] =
          ParseCell<Key>(rest.substr(0, comma), line_no, c, "a uint32 code");
      rest.remove_prefix(comma + 1);
    }
    if (rest.find(',') != std::string_view::npos) {
      BadCsv(line_no, "expected " + std::to_string(columns) + " cells");
    }
    rel.Append(keys, ParseCell<Measure>(rest, line_no, width,
                                        "an int64 measure"));
  }
  return rel;
}

}  // namespace sncube
