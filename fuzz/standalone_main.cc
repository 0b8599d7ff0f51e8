// Fallback driver for toolchains without libFuzzer (e.g. GCC): replays
// files or directories of files through LLVMFuzzerTestOneInput, one process
// for the whole set. Used by the fuzz smoke tests in ctest so the harness
// contracts are exercised on every corpus seed even where coverage-guided
// fuzzing is unavailable. An input the harness rejects (returns -1,
// libFuzzer's "do not add to the corpus") is a dead seed: the replay names
// it and exits 1. With clang, fuzz/CMakeLists.txt links -fsanitize=fuzzer
// instead and this file is not compiled.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

/// Replays one file; false when it cannot be read. Counts a file the
/// harness rejects in `rejected`.
bool ReplayFile(const std::string& path, int& rejected) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  if (LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(bytes.data()),
                             bytes.size()) == -1) {
    std::fprintf(stderr, "rejected by the harness: %s\n", path.c_str());
    ++rejected;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s <corpus file or directory>...\n", argv[0]);
    return 2;
  }
  int replayed = 0;
  int rejected = 0;
  for (int i = 1; i < argc; ++i) {
    const std::filesystem::path p(argv[i]);
    // libFuzzer flags (e.g. -runs=0 from a shared ctest invocation) are
    // meaningless here; skip them instead of failing.
    if (!p.empty() && p.string()[0] == '-') continue;
    if (std::filesystem::is_directory(p)) {
      for (const auto& entry : std::filesystem::directory_iterator(p)) {
        if (!entry.is_regular_file()) continue;
        if (!ReplayFile(entry.path().string(), rejected)) return 1;
        ++replayed;
      }
    } else {
      if (!ReplayFile(p.string(), rejected)) return 1;
      ++replayed;
    }
  }
  if (rejected > 0) {
    std::fprintf(stderr, "replayed %d corpus input(s), %d rejected\n",
                 replayed, rejected);
    return 1;
  }
  std::fprintf(stderr, "replayed %d corpus input(s), no failures\n",
               replayed);
  return 0;
}
