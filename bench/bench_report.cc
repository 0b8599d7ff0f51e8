#include "bench_report.h"

#include <cstdio>
#include <utility>

#include "util/build_info.h"
#include "util/metrics.h"

namespace treesim {
namespace bench {

std::string QueryStatsJson(const QueryStats& stats) {
  JsonObject o;
  o.Int("database_size", stats.database_size)
      .Int("candidates", stats.candidates)
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
