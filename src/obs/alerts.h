#ifndef GANNS_OBS_ALERTS_H_
#define GANNS_OBS_ALERTS_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/federation.h"

namespace ganns {
namespace obs {

/// What a rule watches in each federated window.
enum class AlertKind {
  /// Multi-window burn rate on the derived slo_headroom: fires when the
  /// fast-window average exceeds `threshold` while the slow-window average
  /// confirms sustained burn (> threshold * slow_fraction); resolves when
  /// the fast window recovers.
  kBurnRate,
  /// Fires while any node's state is not "up" (suspect, down, or failed
  /// scrape); one independent state machine per node.
  kNodeDown,
  /// Fires on any window whose cluster-level delta of `metric` is > 0.
  kCounterNonzero,
  /// Fires while cluster delta(metric) / delta(denominator) > threshold
  /// (windows with a zero denominator keep the previous state).
  kRatioAbove,
  /// Fires while the window's derived queue_saturation > threshold.
  kQueueSaturation,
};

/// One declarative rule. Parsed from "name:kind:metric[/denom][:threshold]"
/// CLI specs or built by DefaultClusterRules.
struct AlertRule {
  std::string name;
  AlertKind kind = AlertKind::kCounterNonzero;
  std::string metric;       ///< counter name (kCounterNonzero, kRatioAbove)
  std::string denominator;  ///< kRatioAbove only
  double threshold = 0.0;
  /// Burn-rate windows, counted in federated scrape windows.
  std::size_t fast_windows = 3;
  std::size_t slow_windows = 12;
  /// Slow-window confirmation level, as a fraction of `threshold`.
  double slow_fraction = 0.25;
};

/// "name:kind:..." spec -> rule; nullopt (with no side effects) on a
/// malformed spec. Formats, one per kind:
///   name:burn_rate:<threshold>[:<fast>:<slow>]
///   name:node_down
///   name:counter_nonzero:<metric>
///   name:ratio_above:<metric>/<denominator>:<threshold>
///   name:queue_saturation:<threshold>
std::optional<AlertRule> ParseAlertRule(std::string_view spec);

/// The standing rule set the cluster CLI and benches evaluate: SLO burn
/// rate (needs federation's slo_deadline_us set), node health, lost
/// sub-queries, transfer-drop rate, and aggregator-queue saturation.
std::vector<AlertRule> DefaultClusterRules();

/// One firing or resolved transition, stamped on the simulated clock.
struct AlertEvent {
  std::uint64_t t_us = 0;
  std::uint64_t seq = 0;    ///< federated window that triggered it
  std::string rule;
  std::string node;         ///< "" for cluster-scope, else the node id
  bool firing = false;      ///< false == resolved
  double value = 0.0;       ///< the observation that crossed
  double threshold = 0.0;
};

/// Deterministic SLO alert engine: pure state machines over the federated
/// window stream. Same windows in, same events out — byte-identical JSONL
/// across reruns. Each Evaluate() call also drops one trace instant per
/// transition on the cluster alert track, so firings line up with the
/// failover spans in the exported trace.
class AlertEngine {
 public:
  explicit AlertEngine(std::vector<AlertRule> rules);

  /// Evaluates every rule against one window; returns the transitions it
  /// caused (also appended to events()).
  std::vector<AlertEvent> Evaluate(const FederatedWindow& window);

  const std::vector<AlertRule>& rules() const { return rules_; }
  const std::vector<AlertEvent>& events() const { return events_; }

  /// Rules (by name) currently firing, name-sorted; a kNodeDown rule firing
  /// for any node counts.
  std::vector<std::string> Firing() const;

  /// One JSON object per transition, in evaluation order.
  std::string ToJsonl() const;
  bool WriteJsonl(const std::string& path) const;
  static std::string EventJson(const AlertEvent& event);

 private:
  struct RuleState {
    bool firing = false;               ///< cluster-scope rules
    std::vector<char> node_firing;     ///< kNodeDown, per node
    std::deque<double> history;        ///< kBurnRate headroom samples
  };

  /// One rule/scope state step: emits a firing or resolved event (and its
  /// trace instant) on a transition; returns the new state.
  bool Step(const FederatedWindow& window, const AlertRule& rule,
            bool was_firing, bool now_firing, const std::string& node,
            double value, std::vector<AlertEvent>& out);

  std::vector<AlertRule> rules_;
  std::vector<RuleState> states_;
  std::vector<AlertEvent> events_;
};

}  // namespace obs
}  // namespace ganns

#endif  // GANNS_OBS_ALERTS_H_
