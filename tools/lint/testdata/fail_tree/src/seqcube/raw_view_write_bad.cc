// Fixture: a view file written straight to disk. Cube directory views are
// sealed frames (io/checked_file.h); a raw stream leaves them unchecksummed,
// so a flipped byte would be read back as a different answer.
#include <fstream>

namespace sncube {

void WriteUnsealedView(const char* path) {
  std::ofstream out(path, std::ios::binary);  // EXPECT raw-file-write
  out << "rows with no seal";
}

}  // namespace sncube
