#ifndef TREESIM_UTIL_JSON_H_
#define TREESIM_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace treesim {

/// The one JSON writer: an object built field by field, each value rendered
/// on append, so the builder needs no variant type and the output is
/// exactly what the call sites say, in call order. Keys and string values
/// are escaped; a non-finite double renders as null (NaN and inf are not
/// JSON). Appending a key twice emits it twice: callers own key uniqueness.
///
/// The query log (util/structured_log.h), MetricsSnapshot::ToJson
/// (util/metrics.h) and the bench reports (bench/bench_report.h) render
/// through it; `lint_treesim.py`'s `rawjson` rule keeps its string escaper
/// (json.cc) the only one.
class JsonObject {
 public:
  JsonObject& Str(std::string_view key, std::string_view value);
  JsonObject& Int(std::string_view key, int64_t value);
  JsonObject& Double(std::string_view key, double value);
  JsonObject& Bool(std::string_view key, bool value);
  /// Embeds `json` verbatim: a nested JsonObject::Render(), an array, or
  /// MetricsSnapshot::ToJson().
  JsonObject& Raw(std::string_view key, std::string_view json);

  /// `{"k":v,...}` in append order, no trailing newline.
  std::string Render() const;

 private:
  void AppendKey(std::string_view key);
  std::string body_;
};

}  // namespace treesim

#endif  // TREESIM_UTIL_JSON_H_
