#ifndef TREESIM_UTIL_FLAGS_H_
#define TREESIM_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace treesim {

/// Tiny `--key=value` command-line parser for the experiment binaries and
/// examples (the library itself never parses flags). Unknown keys are kept
/// and can be rejected by the caller; bare tokens are positional arguments.
///
///   FlagParser flags(argc, argv);
///   int queries = flags.GetInt("queries", 25);
///   bool full = flags.GetBool("full", false);
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  /// True when `--key[=...]` was present on the command line.
  bool Has(const std::string& key) const;

  /// String value of `--key=value`, or `def` when absent.
  std::string GetString(const std::string& key, const std::string& def) const;

  /// Integer value of `--key=value`, or `def` when absent or given without
  /// a value. A value that does not parse in full (`--queries=1O`) or lies
  /// out of range is a TREESIM_CHECK failure naming the flag and value.
  int64_t GetInt(const std::string& key, int64_t def) const;

  /// Real value of `--key=value`, or `def` when absent or given without a
  /// value; a value that does not parse in full is fatal, as in GetInt.
  double GetDouble(const std::string& key, double def) const;

  /// Boolean flag: `--key`, `--key=true|false|1|0`. Absent -> `def`.
  bool GetBool(const std::string& key, bool def) const;

  /// Tokens that did not start with `--`.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys seen on the command line that are not in `known`; used by binaries
  /// to fail fast on typos.
  std::vector<std::string> UnknownKeys(
      const std::vector<std::string>& known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace treesim

#endif  // TREESIM_UTIL_FLAGS_H_
