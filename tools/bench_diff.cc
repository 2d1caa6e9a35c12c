// bench_diff — the perf-regression gate over BENCH_*.json artifacts:
//
//   bench_diff <baseline.json> <candidate.json> [--min pattern=RATIO ...]
//              [--max pattern=RATIO ...]
//
// Both files are flattened to dotted numeric paths (arrays by index, e.g.
// results.0.closed.sim_qps). A --min rule requires candidate >= RATIO *
// baseline for every path containing `pattern` (guards throughput/recall);
// a --max rule requires candidate <= RATIO * baseline (guards latency and
// error counts). When a path matches several rules of one kind the
// last-specified rule wins, so broad defaults can be narrowed per metric.
// Paths matching no rule are informational: printed, never gated.
//
// With no rules on the command line the serve/update-bench defaults apply:
//   --min quantized=0.5        BENCH_quantized rows (sim_qps, resident bytes);
//                              listed first so the recall rule below still
//                              wins for quantized recall paths
//   --min recall=0.95          recall is deterministic; 5% guards rounding
//   --min sim_qps=0.5          simulated QPS (serve closed-loop, cluster rows)
//   --min sim_ups=0.5          update-path simulated updates/s (BENCH_update)
//   --min served=1.0           served count must never drop
// Every row in these artifacts is on the simulated clock or counted
// (schema_check bench rejects wall-clock fields), so a fresh run reproduces
// its baseline on any machine; host wall time is perfbench's to gate.
//
// A baseline path missing from the candidate fails the gate. Exit 0 iff
// every gated metric passes; 1 on regression or missing metric; 2 on
// usage/parse errors. Used by ctest against committed baselines in
// bench/baselines/.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "tools/json_reader.h"

namespace {

using ganns::tools::Json;
using ganns::tools::JsonPtr;

struct Rule {
  std::string pattern;
  double ratio = 1.0;
  bool is_min = true;  // min: cand >= ratio*base; max: cand <= ratio*base
};

/// Depth-first flatten of every numeric leaf into dotted paths.
void Flatten(const Json& node, const std::string& prefix,
             std::map<std::string, double>& out) {
  switch (node.kind) {
    case Json::Kind::kNumber:
      out[prefix] = node.number;
      return;
    case Json::Kind::kObject:
      for (const auto& [key, value] : node.object) {
        Flatten(*value, prefix.empty() ? key : prefix + "." + key, out);
      }
      return;
    case Json::Kind::kArray:
      for (std::size_t i = 0; i < node.array.size(); ++i) {
        Flatten(*node.array[i], prefix + "." + std::to_string(i), out);
      }
      return;
    default:
      return;  // strings/bools/nulls are not gateable metrics
  }
}

/// Last matching rule of either kind, or nullptr for informational paths.
const Rule* MatchRule(const std::vector<Rule>& rules,
                      const std::string& path) {
  const Rule* match = nullptr;
  for (const Rule& rule : rules) {
    if (path.find(rule.pattern) != std::string::npos) match = &rule;
  }
  return match;
}

bool ParseRuleSpec(const char* spec, bool is_min, std::vector<Rule>* rules) {
  const char* eq = std::strchr(spec, '=');
  if (eq == nullptr || eq == spec) return false;
  char* end = nullptr;
  const double ratio = std::strtod(eq + 1, &end);
  if (end == eq + 1 || *end != '\0' || ratio < 0) return false;
  rules->push_back({std::string(spec, eq), ratio, is_min});
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_diff <baseline.json> <candidate.json> "
               "[--min pattern=RATIO ...] [--max pattern=RATIO ...]\n");
  return 2;
}

/// Prints the candidate's provenance block (git sha, date, host, flags) so
/// regression reports say what produced the numbers.
void PrintProvenance(const Json& root) {
  const Json* provenance = root.Get("provenance");
  if (provenance == nullptr || !provenance->Is(Json::Kind::kObject)) return;
  std::printf("candidate provenance:");
  for (const auto& [key, value] : provenance->object) {
    if (value->Is(Json::Kind::kString)) {
      std::printf(" %s=%s", key.c_str(), value->string.c_str());
    }
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();

  std::vector<Rule> rules;
  for (int i = 3; i < argc; i += 2) {
    const bool is_min = std::strcmp(argv[i], "--min") == 0;
    const bool is_max = std::strcmp(argv[i], "--max") == 0;
    if ((!is_min && !is_max) || i + 1 >= argc ||
        !ParseRuleSpec(argv[i + 1], is_min, &rules)) {
      return Usage();
    }
  }
  if (rules.empty()) {
    rules = {{"quantized", 0.5, true},
             {"recall", 0.95, true},
             {"sim_qps", 0.5, true},
             {"sim_ups", 0.5, true},
             {"served", 1.0, true}};
  }

  std::string error;
  const JsonPtr baseline = ganns::tools::ParseJsonFile(argv[1], &error);
  if (baseline == nullptr) {
    std::fprintf(stderr, "baseline: %s\n", error.c_str());
    return 2;
  }
  const JsonPtr candidate = ganns::tools::ParseJsonFile(argv[2], &error);
  if (candidate == nullptr) {
    std::fprintf(stderr, "candidate: %s\n", error.c_str());
    return 2;
  }

  std::map<std::string, double> base_metrics;
  std::map<std::string, double> cand_metrics;
  Flatten(*baseline, "", base_metrics);
  Flatten(*candidate, "", cand_metrics);

  PrintProvenance(*candidate);

  std::size_t gated = 0;
  std::size_t failed = 0;
  for (const auto& [path, base] : base_metrics) {
    // Provenance leaves are identity, not performance.
    if (path.rfind("provenance.", 0) == 0) continue;
    const Rule* rule = MatchRule(rules, path);
    const auto it = cand_metrics.find(path);
    if (it == cand_metrics.end()) {
      if (rule != nullptr) {
        std::printf("FAIL %-40s missing from candidate\n", path.c_str());
        ++gated;
        ++failed;
      }
      continue;
    }
    const double cand = it->second;
    if (rule == nullptr) {
      std::printf("info %-40s %14.4f -> %14.4f\n", path.c_str(), base, cand);
      continue;
    }
    ++gated;
    const bool ok = rule->is_min ? cand >= rule->ratio * base
                                 : cand <= rule->ratio * base;
    std::printf("%s %-40s %14.4f -> %14.4f  (%s %.2fx)\n",
                ok ? "ok  " : "FAIL", path.c_str(), base, cand,
                rule->is_min ? ">=" : "<=", rule->ratio);
    if (!ok) ++failed;
  }

  if (failed > 0) {
    std::printf("bench_diff: %zu of %zu gated metrics regressed\n", failed,
                gated);
    return 1;
  }
  std::printf("bench_diff: %zu gated metrics pass\n", gated);
  return 0;
}
