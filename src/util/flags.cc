#include "util/flags.h"

#include <cerrno>
#include <cstdlib>

#include "util/logging.h"

namespace treesim {

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      positional_.push_back(std::move(tok));
      continue;
    }
    tok = tok.substr(2);
    const size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      values_[tok] = "";
    } else {
      values_[tok.substr(0, eq)] = tok.substr(eq + 1);
    }
  }
}

bool FlagParser::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& def) const {
  auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

namespace {

/// A present value must parse in full and in range: a typo such as
/// `--queries=1O` stops the program rather than running the default.
void CheckParsed(const std::string& key, const std::string& text,
                 const char* end) {
  TREESIM_CHECK(*end == '\0' && errno != ERANGE)
      << "--" << key << "=" << text << " is not a valid number";
}

}  // namespace

int64_t FlagParser::GetInt(const std::string& key, int64_t def) const {
  auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return def;
  char* end = nullptr;
  errno = 0;
  const int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  CheckParsed(key, it->second, end);
  return v;
}

double FlagParser::GetDouble(const std::string& key, double def) const {
  auto it = values_.find(key);
  if (it == values_.end() || it->second.empty()) return def;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  CheckParsed(key, it->second, end);
  return v;
}

bool FlagParser::GetBool(const std::string& key, bool def) const {
  auto it = values_.find(key);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  return def;
}

std::vector<std::string> FlagParser::UnknownKeys(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& [key, value] : values_) {
    bool found = false;
    for (const std::string& k : known) {
      if (k == key) {
        found = true;
        break;
      }
    }
    if (!found) unknown.push_back(key);
  }
  return unknown;
}

}  // namespace treesim
