// Fixture: direct file writes in a checksummed layer. The ofstream, the
// fopen and the tmpfile all bypass the CRC seal and the DiskModel
// fault-injection sites.
#include <cstdio>
#include <fstream>

namespace sncube {

void WriteUnsealed(const char* path) {
  std::ofstream out(path, std::ios::binary);  // EXPECT raw-file-write
  out << "no checksum on these bytes";
  std::FILE* f = std::fopen(path, "ab");  // EXPECT raw-file-write
  if (f != nullptr) std::fclose(f);
  std::FILE* t = std::tmpfile();  // EXPECT raw-file-write
  if (t != nullptr) std::fclose(t);
}

}  // namespace sncube
