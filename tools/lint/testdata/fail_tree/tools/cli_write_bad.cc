// Fixture: a command-line tool writing a file with a raw stream. The rule
// covers the sources directly in tools/, so an unexplained write there is a
// finding like one in src/seqcube.
#include <fstream>

namespace sncube {

void WriteReport(const char* path) {
  std::ofstream out(path);  // EXPECT raw-file-write
  out << "report";
}

}  // namespace sncube
