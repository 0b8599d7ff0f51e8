#include "util/json.h"

#include <cmath>
#include <cstdio>

namespace treesim {
namespace {

/// Appends `s` as a quoted JSON string: `"` and `\` take a backslash,
/// control characters the \u form.
void AppendString(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

void JsonObject::AppendKey(std::string_view key) {
  if (!body_.empty()) body_ += ',';
  AppendString(body_, key);
  body_ += ':';
}

JsonObject& JsonObject::Str(std::string_view key, std::string_view value) {
  AppendKey(key);
  AppendString(body_, value);
  return *this;
}

JsonObject& JsonObject::Int(std::string_view key, int64_t value) {
  AppendKey(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Double(std::string_view key, double value) {
  AppendKey(key);
  if (!std::isfinite(value)) {
    body_ += "null";
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    body_ += buf;
  }
  return *this;
}

JsonObject& JsonObject::Bool(std::string_view key, bool value) {
  AppendKey(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(std::string_view key, std::string_view json) {
  AppendKey(key);
  body_ += json;
  return *this;
}

std::string JsonObject::Render() const { return "{" + body_ + "}"; }

}  // namespace treesim
