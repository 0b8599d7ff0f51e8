#include "bench_report.h"

#include <cmath>
#include <cstdio>

#include "util/build_info.h"

namespace treesim {
namespace bench {
namespace {

void AppendJsonEscaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string JsonString(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  AppendJsonEscaped(out, s);
  out += '"';
  return out;
}

std::string JsonDouble(double value) {
  if (!std::isfinite(value)) return "null";  // NaN/inf are not JSON
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

JsonObject& JsonObject::Str(const std::string& key, std::string_view value) {
  fields_.emplace_back(key, JsonString(value));
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}

JsonObject& JsonObject::Double(const std::string& key, double value) {
  fields_.emplace_back(key, JsonDouble(value));
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ',';
    out += JsonString(fields_[i].first);
    out += ':';
    out += fields_[i].second;
  }
  out += '}';
  return out;
}

std::string QueryStatsJson(const QueryStats& stats) {
  JsonObject o;
  o.Int("database_size", stats.database_size)
      .Int("candidates", stats.candidates)
      .Int("edit_distance_calls", stats.edit_distance_calls)
      .Int("ted_cells", stats.ted_cells)
      .Int("results", stats.results)
      .Double("filter_seconds", stats.filter_seconds)
      .Double("refine_seconds", stats.refine_seconds)
      .Double("accessed_fraction", stats.AccessedFraction());
  return o.Render();
}

BenchReport::BenchReport(std::string benchmark_name)
    : name_(std::move(benchmark_name)) {}

JsonObject& BenchReport::AddPoint() {
  points_.emplace_back();
  return points_.back();
}

std::string BenchReport::Render() const {
  JsonObject build;
  build.Str("git_sha", build_info::kGitSha)
      .Bool("git_dirty", build_info::kGitDirty)
      .Str("build_type", build_info::kBuildType)
      .Str("compiler", build_info::kCompiler)
      .Bool("metrics_enabled", kMetricsEnabled);

  std::string points = "[";
  for (size_t i = 0; i < points_.size(); ++i) {
    if (i > 0) points += ',';
    points += points_[i].Render();
  }
  points += ']';

  JsonObject doc;
  doc.Int("schema_version", 1)
      .Str("benchmark", name_)
      .Raw("build", build.Render())
      .Raw("config", config_.Render())
      .Raw("points", std::move(points));
  return doc.Render();
}

Status BenchReport::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open bench report file " + path);
  }
  const std::string doc = Render();
  const size_t written = std::fwrite(doc.data(), 1, doc.size(), f);
  std::fputc('\n', f);
  const bool ok = written == doc.size() && std::fclose(f) == 0;
  if (!ok) return Status::Internal("short write to bench report " + path);
  return Status::Ok();
}

bool BenchReport::WriteIfRequested(const std::string& path) const {
  if (path.empty()) return true;
  const Status status = WriteFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "bench report: %s\n", status.ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "bench report written to %s\n", path.c_str());
  return true;
}

}  // namespace bench
}  // namespace treesim
