#include "bench/bench_common.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "common/file.h"
#include "common/logging.h"

namespace ganns {
namespace bench {
namespace {

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || parsed == 0) return fallback;
  return static_cast<std::size_t>(parsed);
}

}  // namespace

BenchConfig BenchConfig::FromEnv() {
  BenchConfig config;
  config.scale = EnvSize("GANNS_SCALE", config.scale);
  config.queries = EnvSize("GANNS_QUERIES", config.queries);
  config.seed = EnvSize("GANNS_SEED", config.seed);
  return config;
}

std::size_t BenchConfig::PointsFor(const data::DatasetSpec& spec) const {
  const double scaled = static_cast<double>(scale) * spec.size_millions;
  return std::max<std::size_t>(1000, static_cast<std::size_t>(scaled));
}

Workload MakeWorkload(const std::string& dataset, const BenchConfig& config,
                      std::size_t k) {
  const data::DatasetSpec& spec = data::PaperDataset(dataset);
  const std::size_t n = config.PointsFor(spec);
  data::Dataset base = data::GenerateBase(spec, n, config.seed);
  data::Dataset queries =
      data::GenerateQueries(spec, config.queries, n, config.seed);
  data::GroundTruth truth = data::BruteForceKnn(base, queries, k);
  return Workload{spec, std::move(base), std::move(queries),
                  std::move(truth)};
}

graph::ProximityGraph CachedNswGraph(const Workload& workload,
                                     const graph::NswParams& params,
                                     const BenchConfig& config) {
  ::mkdir("ganns_cache", 0755);
  std::ostringstream path;
  path << "ganns_cache/" << workload.base.name() << "_d"
       << workload.base.dim() << "_n" << workload.base.size() << "_dmin"
       << params.d_min << "_dmax" << params.d_max << "_ef"
       << params.ef_construction << "_s" << config.seed << ".nsw";
  if (auto cached = graph::ProximityGraph::LoadFrom(path.str());
      cached.has_value() &&
      cached->num_vertices() == workload.base.size() &&
      cached->d_max() == params.d_max) {
    return *std::move(cached);
  }
  graph::CpuBuildResult built = graph::BuildNswCpu(workload.base, params);
  // Written under a per-process name and renamed into place, so a
  // concurrent bench run reading the cache never sees a half-written file.
  const std::string target = path.str();
  ReplaceFiles({&target, 1}, [&](std::size_t, const std::string& tmp) {
    return built.graph.SaveTo(tmp);
  });
  return std::move(built.graph);
}

std::string ProvenanceJson() {
  const auto field = [](const char* env) {
    const char* value = std::getenv(env);
    std::string clean = value != nullptr && *value != '\0' ? value : "unknown";
    // The fields land inside a JSON string; drop anything that would need
    // escaping rather than implementing an escaper for host names.
    std::erase_if(clean, [](char c) {
      return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
    });
    return clean;
  };
  std::string json = "{";
  json += "\"git_sha\": \"" + field("GANNS_PROV_GIT_SHA") + "\", ";
  json += "\"date\": \"" + field("GANNS_PROV_DATE") + "\", ";
  json += "\"host\": \"" + field("GANNS_PROV_HOST") + "\", ";
  json += "\"flags\": \"" + field("GANNS_PROV_FLAGS") + "\", ";
  json += "\"wall_seconds\": \"" + field("GANNS_PROV_WALL_SECONDS") + "\", ";
  json += "\"telemetry_overhead\": \"" +
          field("GANNS_PROV_TELEMETRY_OVERHEAD") + "\"}";
  return json;
}

void Appendf(std::string& out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  const int size = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  const std::size_t start = out.size();
  out.resize(start + static_cast<std::size_t>(size) + 1);
  std::vsnprintf(out.data() + start, static_cast<std::size_t>(size) + 1,
                 format, args);
  out.resize(start + static_cast<std::size_t>(size));
  va_end(args);
}

int WriteReport(int argc, char** argv, const char* fallback,
                const std::string& json) {
  const std::string out = argc > 1 ? argv[1] : fallback;
  if (!WriteTextFile(out, json)) {
    std::fprintf(stderr, "failed to write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

void PrintHeader(const std::string& bench_name, const BenchConfig& config) {
  std::printf("# %s\n", bench_name.c_str());
  std::printf("# scale=%zu queries=%zu seed=%llu\n", config.scale,
              config.queries,
              static_cast<unsigned long long>(config.seed));
}

}  // namespace bench
}  // namespace ganns
