#include "obs/alerts.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "common/file.h"
#include "obs/trace.h"

namespace ganns {
namespace obs {
namespace {

void AppendFixed(std::string& out, double value, int precision) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  out += buffer;
}

std::uint64_t CounterDelta(const FederatedWindow& window,
                           const std::string& name) {
  for (const auto& [counter, delta] : window.counter_deltas) {
    if (counter == name) return delta;
  }
  return 0;
}

std::optional<AlertKind> ParseKind(std::string_view name) {
  if (name == "burn_rate") return AlertKind::kBurnRate;
  if (name == "node_down") return AlertKind::kNodeDown;
  if (name == "counter_nonzero") return AlertKind::kCounterNonzero;
  if (name == "ratio_above") return AlertKind::kRatioAbove;
  if (name == "queue_saturation") return AlertKind::kQueueSaturation;
  return std::nullopt;
}

std::vector<std::string_view> SplitColons(std::string_view spec) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string_view::npos) {
      parts.push_back(spec.substr(start));
      return parts;
    }
    parts.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
}

std::optional<double> ParseDouble(std::string_view text) {
  const std::string copy(text);
  char* end = nullptr;
  const double value = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || *end != '\0') return std::nullopt;
  return value;
}

}  // namespace

std::optional<AlertRule> ParseAlertRule(std::string_view spec) {
  const std::vector<std::string_view> parts = SplitColons(spec);
  if (parts.size() < 2 || parts[0].empty()) return std::nullopt;
  const std::optional<AlertKind> kind = ParseKind(parts[1]);
  if (!kind.has_value()) return std::nullopt;
  AlertRule rule;
  rule.name = std::string(parts[0]);
  rule.kind = *kind;
  switch (*kind) {
    case AlertKind::kBurnRate: {
      if (parts.size() < 3 || parts.size() > 5) return std::nullopt;
      const std::optional<double> threshold = ParseDouble(parts[2]);
      if (!threshold.has_value()) return std::nullopt;
      rule.threshold = *threshold;
      if (parts.size() >= 4) {
        const std::optional<double> fast = ParseDouble(parts[3]);
        if (!fast.has_value() || *fast < 1) return std::nullopt;
        rule.fast_windows = static_cast<std::size_t>(*fast);
      }
      if (parts.size() == 5) {
        const std::optional<double> slow = ParseDouble(parts[4]);
        if (!slow.has_value() || *slow < 1) return std::nullopt;
        rule.slow_windows = static_cast<std::size_t>(*slow);
      }
      if (rule.slow_windows < rule.fast_windows) return std::nullopt;
      return rule;
    }
    case AlertKind::kNodeDown:
      return parts.size() == 2 ? std::optional<AlertRule>(rule) : std::nullopt;
    case AlertKind::kCounterNonzero:
      if (parts.size() != 3 || parts[2].empty()) return std::nullopt;
      rule.metric = std::string(parts[2]);
      return rule;
    case AlertKind::kRatioAbove: {
      if (parts.size() != 4) return std::nullopt;
      const std::size_t slash = parts[2].find('/');
      if (slash == std::string_view::npos || slash == 0 ||
          slash + 1 >= parts[2].size()) {
        return std::nullopt;
      }
      rule.metric = std::string(parts[2].substr(0, slash));
      rule.denominator = std::string(parts[2].substr(slash + 1));
      const std::optional<double> threshold = ParseDouble(parts[3]);
      if (!threshold.has_value()) return std::nullopt;
      rule.threshold = *threshold;
      return rule;
    }
    case AlertKind::kQueueSaturation: {
      if (parts.size() != 3) return std::nullopt;
      const std::optional<double> threshold = ParseDouble(parts[2]);
      if (!threshold.has_value()) return std::nullopt;
      rule.threshold = *threshold;
      return rule;
    }
  }
  return std::nullopt;
}

std::vector<AlertRule> DefaultClusterRules() {
  std::vector<AlertRule> rules;
  {
    AlertRule rule;
    rule.name = "slo_burn_rate";
    rule.kind = AlertKind::kBurnRate;
    rule.threshold = 1.0;
    rule.fast_windows = 3;
    rule.slow_windows = 12;
    rules.push_back(rule);
  }
  {
    AlertRule rule;
    rule.name = "node_down";
    rule.kind = AlertKind::kNodeDown;
    rules.push_back(rule);
  }
  {
    AlertRule rule;
    rule.name = "lost_sub_queries";
    rule.kind = AlertKind::kCounterNonzero;
    rule.metric = "cluster.lost_sub_queries";
    rules.push_back(rule);
  }
  {
    AlertRule rule;
    rule.name = "transfer_drop_rate";
    rule.kind = AlertKind::kRatioAbove;
    rule.metric = "cluster.dropped_transfers";
    rule.denominator = "cluster.flushes";
    rule.threshold = 0.1;
    rules.push_back(rule);
  }
  {
    AlertRule rule;
    rule.name = "agg_queue_saturation";
    rule.kind = AlertKind::kQueueSaturation;
    rule.threshold = 0.9;
    rules.push_back(rule);
  }
  return rules;
}

AlertEngine::AlertEngine(std::vector<AlertRule> rules)
    : rules_(std::move(rules)), states_(rules_.size()) {}

bool AlertEngine::Step(const FederatedWindow& window, const AlertRule& rule,
                       bool was_firing, bool now_firing,
                       const std::string& node, double value,
                       std::vector<AlertEvent>& out) {
  if (now_firing == was_firing) return was_firing;
  AlertEvent event;
  event.t_us = window.t_us;
  event.seq = window.seq;
  event.rule = rule.name;
  event.node = node;
  event.firing = now_firing;
  event.value = value;
  event.threshold = rule.threshold;
  out.push_back(event);
  events_.push_back(std::move(event));
  if (TracingEnabled()) {
    TraceEvent instant;
    instant.name = InternName("alert." + rule.name +
                              (now_firing ? ".firing" : ".resolved"));
    instant.pid = kClusterPid;
    instant.tid = kClusterAlertTrack;
    instant.ts = static_cast<double>(window.t_us);
    instant.arg = static_cast<std::int64_t>(window.seq);
    instant.arg_name = InternName("window");
    TraceRecorder::Global().Add(instant);
  }
  return now_firing;
}

std::vector<AlertEvent> AlertEngine::Evaluate(const FederatedWindow& window) {
  std::vector<AlertEvent> transitions;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const AlertRule& rule = rules_[r];
    RuleState& state = states_[r];
    switch (rule.kind) {
      case AlertKind::kBurnRate: {
        // A window with no latency samples carries no SLI signal: hold the
        // current state instead of letting silence read as recovery (or
        // diluting the fast window with zeros).
        if (window.slo_sample_count == 0) break;
        state.history.push_back(window.slo_headroom);
        while (state.history.size() > rule.slow_windows) {
          state.history.pop_front();
        }
        const auto mean_of = [&](std::size_t n) {
          const std::size_t have = std::min(n, state.history.size());
          if (have == 0) return 0.0;
          double sum = 0.0;
          for (std::size_t i = state.history.size() - have;
               i < state.history.size(); ++i) {
            sum += state.history[i];
          }
          return sum / static_cast<double>(have);
        };
        const double fast = mean_of(rule.fast_windows);
        const double slow = mean_of(rule.slow_windows);
        // Fire on a hot fast window confirmed by a non-trivial slow burn;
        // resolve as soon as the fast window recovers (the slow window only
        // gates ignition, so a recovered cluster is not stuck firing).
        const bool now = state.firing
                             ? fast > rule.threshold
                             : fast > rule.threshold &&
                                   slow > rule.threshold * rule.slow_fraction;
        state.firing =
            Step(window, rule, state.firing, now, "", fast, transitions);
        break;
      }
      case AlertKind::kNodeDown: {
        state.node_firing.resize(window.nodes.size(), 0);
        for (const NodeWindow& node : window.nodes) {
          const bool now = !node.scrape_ok || node.state != "up";
          const bool was = state.node_firing[node.node] != 0;
          state.node_firing[node.node] =
              Step(window, rule, was, now, std::to_string(node.node),
                   now ? 1.0 : 0.0, transitions)
                  ? 1
                  : 0;
        }
        break;
      }
      case AlertKind::kCounterNonzero: {
        const std::uint64_t delta = CounterDelta(window, rule.metric);
        state.firing = Step(window, rule, state.firing, delta > 0, "",
                            static_cast<double>(delta), transitions);
        break;
      }
      case AlertKind::kRatioAbove: {
        const std::uint64_t denominator =
            CounterDelta(window, rule.denominator);
        if (denominator == 0) break;  // no observations: hold state
        const double ratio =
            static_cast<double>(CounterDelta(window, rule.metric)) /
            static_cast<double>(denominator);
        state.firing = Step(window, rule, state.firing,
                            ratio > rule.threshold, "", ratio, transitions);
        break;
      }
      case AlertKind::kQueueSaturation: {
        state.firing = Step(window, rule, state.firing,
                            window.queue_saturation > rule.threshold, "",
                            window.queue_saturation, transitions);
        break;
      }
    }
  }
  return transitions;
}

std::vector<std::string> AlertEngine::Firing() const {
  std::set<std::string> firing;
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    if (states_[r].firing) firing.insert(rules_[r].name);
    for (const char node_firing : states_[r].node_firing) {
      if (node_firing != 0) firing.insert(rules_[r].name);
    }
  }
  return {firing.begin(), firing.end()};
}

std::string AlertEngine::EventJson(const AlertEvent& event) {
  std::string out = "{\"t_us\":" + std::to_string(event.t_us) +
                    ",\"seq\":" + std::to_string(event.seq) + ",\"rule\":\"" +
                    event.rule + "\",\"node\":\"" + event.node +
                    "\",\"state\":\"" + (event.firing ? "firing" : "resolved") +
                    "\",\"value\":";
  AppendFixed(out, event.value, 6);
  out += ",\"threshold\":";
  AppendFixed(out, event.threshold, 6);
  out += "}";
  return out;
}

std::string AlertEngine::ToJsonl() const {
  std::string out;
  for (const AlertEvent& event : events_) {
    out += EventJson(event);
    out += "\n";
  }
  return out;
}

bool AlertEngine::WriteJsonl(const std::string& path) const {
  return WriteTextFile(path, ToJsonl());
}

}  // namespace obs
}  // namespace ganns
