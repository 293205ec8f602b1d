// Fixture: a source below tools/ (as the lint fixture trees are) is outside
// the raw-file-write scope, which covers only the files directly in tools/.
#include <fstream>

namespace sncube {

void WriteFixture(const char* path) {
  std::ofstream out(path);
  out << "fixture";
}

}  // namespace sncube
