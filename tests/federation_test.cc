// Tests for the cluster observability plane (src/obs/federation,
// src/obs/alerts): per-node registry independence, the scrape wire-size
// model, windowed counter deltas, the bucket-merged cluster HDR view (a
// regression guard for the per-bucket vs cumulative merge bug), failed
// scrapes, export determinism, alert rule parsing, and the deterministic
// firing/resolved state machine of every alert kind.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/alerts.h"
#include "obs/federation.h"
#include "obs/metrics.h"

namespace ganns {
namespace obs {
namespace {

/// A simulated node for the monitor: its own registry plus recorded scrape
/// charges (what the cluster layer routes into the node's NIC model).
struct FakeNode {
  MetricsRegistry registry;
  bool alive = true;
  std::string state = "up";
  std::uint64_t charged_bytes = 0;
  std::uint64_t charges = 0;

  NodeHooks Hooks() {
    NodeHooks hooks;
    hooks.alive = [this] { return alive; };
    hooks.state = [this] { return state; };
    hooks.snapshot = [this] { return registry.Snapshot(); };
    hooks.charge = [this](std::uint64_t request, std::uint64_t response) {
      charged_bytes += request + response;
      ++charges;
    };
    return hooks;
  }
};

std::uint64_t Delta(const std::vector<std::pair<std::string, std::uint64_t>>&
                        deltas,
                    const std::string& name) {
  for (const auto& [metric, value] : deltas) {
    if (metric == name) return value;
  }
  return 0;
}

const HdrWindow* Hdr(
    const std::vector<HdrWindow>& windows,
    const std::string& name) {
  for (const HdrWindow& window : windows) {
    if (window.name == name) return &window;
  }
  return nullptr;
}

TEST(MetricsRegistryTest, InstancesAreIndependent) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.GetCounter("served").Add(3);
  b.GetCounter("served").Add(5);
  EXPECT_EQ(a.GetCounter("served").value(), 3u);
  EXPECT_EQ(b.GetCounter("served").value(), 5u);
  // Neither instance leaks into the process-wide registry.
  EXPECT_NE(&a.GetCounter("served"), &b.GetCounter("served"));
}

TEST(FederationTest, SnapshotWireBytesIsDeterministicAndMonotone) {
  MetricsRegistry registry;
  registry.GetCounter("cluster.node.served_queries").Add(10);
  const std::uint64_t small = SnapshotWireBytes(registry.Snapshot());
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, SnapshotWireBytes(registry.Snapshot()));

  // More metrics and more HDR buckets cost more wire bytes.
  registry.GetGauge("cluster.node.hosted_shards").Set(2.0);
  registry.GetHdr("cluster.node.serve_us").Record(100);
  registry.GetHdr("cluster.node.serve_us").Record(100000);
  EXPECT_GT(SnapshotWireBytes(registry.Snapshot()), small);
}

TEST(FederationTest, CutsAlignedWindowsWithPerNodeDeltas) {
  FederationOptions options;
  options.enabled = true;
  options.scrape_interval_us = 100;
  MetricsFederation federation(options);

  FakeNode nodes[2];
  federation.AddNode(nodes[0].Hooks());
  federation.AddNode(nodes[1].Hooks());

  nodes[0].registry.GetCounter("cluster.node.served_queries").Add(4);
  nodes[1].registry.GetCounter("cluster.node.served_queries").Add(6);
  const auto first = federation.AdvanceTo(100);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].seq, 0u);
  EXPECT_EQ(first[0].t_us, 100u);
  // Window 0's deltas are cumulative from the clock origin, so its interval
  // is too: a rate over it (served / interval) must not divide by zero.
  EXPECT_EQ(first[0].interval_us, 100u);
  ASSERT_EQ(first[0].nodes.size(), 2u);
  EXPECT_TRUE(first[0].nodes[0].scrape_ok);
  EXPECT_EQ(Delta(first[0].nodes[0].counter_deltas,
                  "cluster.node.served_queries"),
            4u);
  EXPECT_EQ(Delta(first[0].nodes[1].counter_deltas,
                  "cluster.node.served_queries"),
            6u);
  // Cluster roll-up sums node deltas by name.
  EXPECT_EQ(Delta(first[0].counter_deltas, "cluster.node.served_queries"),
            10u);

  // The next window carries only the new increments, not the totals.
  nodes[0].registry.GetCounter("cluster.node.served_queries").Add(1);
  const auto second = federation.AdvanceTo(250);  // only t=200 is due
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].seq, 1u);
  EXPECT_EQ(second[0].interval_us, 100u);
  EXPECT_EQ(Delta(second[0].counter_deltas, "cluster.node.served_queries"),
            1u);

  // Every scrape charged both nodes' NICs; the monitor accounted the bytes.
  EXPECT_EQ(nodes[0].charges, 2u);
  EXPECT_EQ(nodes[1].charges, 2u);
  EXPECT_EQ(federation.scrapes(), 2u);
  EXPECT_EQ(federation.scrape_bytes(),
            nodes[0].charged_bytes + nodes[1].charged_bytes);
  EXPECT_GT(federation.scrape_bytes(), 0u);
}

// Regression guard: HdrHistogram::BucketSnapshot stores PER-BUCKET counts.
// The cluster HDR view must sum the nodes' sparse bucket lists bucket by
// bucket — treating them as cumulative made windowed counts vanish and
// corrupted the merged quantiles.
TEST(FederationTest, ClusterHdrIsTrueMergedQuantile) {
  FederationOptions options;
  options.enabled = true;
  options.scrape_interval_us = 100;
  options.slo_deadline_us = 1000;
  options.latency_hdr = "cluster.node.serve_us";
  MetricsFederation federation(options);

  FakeNode nodes[2];
  federation.AddNode(nodes[0].Hooks());
  federation.AddNode(nodes[1].Hooks());

  // 90 fast samples on node 0, 10 slow ones on node 1: the merged p99 must
  // land in node 1's tail while the merged p50 stays fast — an average of
  // per-node quantiles could show neither.
  for (int i = 0; i < 90; ++i) {
    nodes[0].registry.GetHdr("cluster.node.serve_us").Record(100);
  }
  for (int i = 0; i < 10; ++i) {
    nodes[1].registry.GetHdr("cluster.node.serve_us").Record(4000);
  }
  const auto first = federation.AdvanceTo(100);
  ASSERT_EQ(first.size(), 1u);
  const HdrWindow* merged =
      Hdr(first[0].hdr, "cluster.node.serve_us");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count, 100u);
  EXPECT_GE(merged->p99, 4000u);
  EXPECT_LT(merged->p50, 4000u);
  EXPECT_EQ(first[0].slo_sample_count, 100u);
  EXPECT_GT(first[0].slo_headroom, 1.0);  // p99 ≥ 4000 vs 1000 µs deadline

  // The second window must contain only the delta, not resurrect history.
  nodes[0].registry.GetHdr("cluster.node.serve_us").Record(100);
  const auto second = federation.AdvanceTo(200);
  ASSERT_EQ(second.size(), 1u);
  merged = Hdr(second[0].hdr, "cluster.node.serve_us");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->count, 1u);
  EXPECT_EQ(merged->total_count, 101u);
  EXPECT_LT(second[0].slo_headroom, 1.0);

  // An empty window carries no SLI signal (burn-rate holds state on it).
  const auto third = federation.AdvanceTo(300);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_EQ(third[0].slo_sample_count, 0u);
}

TEST(FederationTest, DeadNodeFailsScrapeWithZeroDeltas) {
  FederationOptions options;
  options.enabled = true;
  options.scrape_interval_us = 100;
  MetricsFederation federation(options);

  FakeNode node;
  federation.AddNode(node.Hooks());
  node.registry.GetCounter("cluster.node.served_queries").Add(2);
  (void)federation.AdvanceTo(100);

  node.alive = false;
  node.state = "down";
  node.registry.GetCounter("cluster.node.served_queries").Add(7);
  const std::uint64_t bytes_before = node.charged_bytes;
  const auto windows = federation.AdvanceTo(200);
  ASSERT_EQ(windows.size(), 1u);
  ASSERT_EQ(windows[0].nodes.size(), 1u);
  EXPECT_FALSE(windows[0].nodes[0].scrape_ok);
  EXPECT_EQ(windows[0].nodes[0].state, "down");
  for (const auto& [name, delta] : windows[0].nodes[0].counter_deltas) {
    EXPECT_EQ(delta, 0u) << name;
  }
  // Only the request probe hits a dead node's wire — no response bytes.
  EXPECT_EQ(node.charged_bytes, bytes_before + kScrapeRequestBytes);

  // After revival the missed increments surface in one catch-up window
  // rather than being lost.
  node.alive = true;
  node.state = "up";
  const auto revived = federation.AdvanceTo(300);
  ASSERT_EQ(revived.size(), 1u);
  EXPECT_TRUE(revived[0].nodes[0].scrape_ok);
  EXPECT_EQ(Delta(revived[0].nodes[0].counter_deltas,
                  "cluster.node.served_queries"),
            7u);
}

TEST(FederationTest, ExportsAreByteStable) {
  const auto run = [] {
    FederationOptions options;
    options.enabled = true;
    options.scrape_interval_us = 50;
    options.slo_deadline_us = 500;
    options.latency_hdr = "cluster.batch_us";
    MetricsFederation federation(options);
    FakeNode node;
    federation.AddNode(node.Hooks());
    MetricsRegistry control;
    federation.SetControl([&control] { return control.Snapshot(); });
    for (std::uint64_t t = 50; t <= 250; t += 50) {
      node.registry.GetCounter("cluster.node.served_queries").Add(t / 50);
      control.GetHdr("cluster.batch_us").Record(100 + t);
      control.GetGauge("cluster.agg.pending_saturation")
          .Set(static_cast<double>(t) / 1000.0);
      (void)federation.AdvanceTo(t);
    }
    return std::make_pair(federation.ToJsonl(), federation.ToPrometheus());
  };
  const auto [jsonl_a, prom_a] = run();
  const auto [jsonl_b, prom_b] = run();
  EXPECT_EQ(jsonl_a, jsonl_b);
  EXPECT_EQ(prom_a, prom_b);
  EXPECT_NE(jsonl_a.find("\"slo_samples\":"), std::string::npos);
  // Every node family carries the node label; control metrics are labeled
  // node="cluster".
  EXPECT_NE(prom_a.find("node=\"0\""), std::string::npos);
  EXPECT_NE(prom_a.find("node=\"cluster\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Alert rules
// ---------------------------------------------------------------------------

TEST(AlertRuleTest, ParsesEveryKindAndRejectsMalformed) {
  const auto burn = ParseAlertRule("slo:burn_rate:1.5:2:8");
  ASSERT_TRUE(burn.has_value());
  EXPECT_EQ(burn->kind, AlertKind::kBurnRate);
  EXPECT_DOUBLE_EQ(burn->threshold, 1.5);
  EXPECT_EQ(burn->fast_windows, 2u);
  EXPECT_EQ(burn->slow_windows, 8u);

  const auto down = ParseAlertRule("down:node_down");
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->kind, AlertKind::kNodeDown);

  const auto lost = ParseAlertRule("lost:counter_nonzero:cluster.lost");
  ASSERT_TRUE(lost.has_value());
  EXPECT_EQ(lost->metric, "cluster.lost");

  const auto ratio = ParseAlertRule("drops:ratio_above:a/b:0.25");
  ASSERT_TRUE(ratio.has_value());
  EXPECT_EQ(ratio->metric, "a");
  EXPECT_EQ(ratio->denominator, "b");
  EXPECT_DOUBLE_EQ(ratio->threshold, 0.25);

  const auto queue = ParseAlertRule("qsat:queue_saturation:0.9");
  ASSERT_TRUE(queue.has_value());
  EXPECT_DOUBLE_EQ(queue->threshold, 0.9);

  for (const char* bad :
       {"", "noname", ":burn_rate:1", "x:unknown_kind:1", "x:burn_rate",
        "x:burn_rate:abc", "x:burn_rate:1:8:2", "x:node_down:extra",
        "x:counter_nonzero", "x:ratio_above:nodenominator:0.5",
        "x:ratio_above:a/b:nan-ish:extra", "x:queue_saturation"}) {
    EXPECT_FALSE(ParseAlertRule(bad).has_value()) << bad;
  }
}

FederatedWindow MakeWindow(std::uint64_t seq, double headroom,
                           std::uint64_t samples) {
  FederatedWindow window;
  window.seq = seq;
  window.t_us = seq * 100;
  window.slo_headroom = headroom;
  window.slo_sample_count = samples;
  return window;
}

TEST(AlertEngineTest, BurnRateFiresResolvesAndHoldsOnEmptyWindows) {
  AlertRule rule;
  rule.name = "slo_burn_rate";
  rule.kind = AlertKind::kBurnRate;
  rule.threshold = 1.0;
  rule.fast_windows = 2;
  rule.slow_windows = 4;
  AlertEngine engine({rule});

  EXPECT_TRUE(engine.Evaluate(MakeWindow(0, 0.4, 10)).empty());
  // One hot window: fast mean (0.4 + 1.8)/2 = 1.1 > 1, slow burn confirmed.
  auto events = engine.Evaluate(MakeWindow(1, 1.8, 10));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].firing);
  EXPECT_EQ(events[0].rule, "slo_burn_rate");

  // Sample-free windows hold the firing state: silence is not recovery.
  EXPECT_TRUE(engine.Evaluate(MakeWindow(2, 0.0, 0)).empty());
  EXPECT_EQ(engine.Firing(), std::vector<std::string>{"slo_burn_rate"});

  // Still hot, no duplicate transition.
  EXPECT_TRUE(engine.Evaluate(MakeWindow(3, 1.6, 10)).empty());

  // Recovery: fast window mean drops under the threshold.
  EXPECT_TRUE(engine.Evaluate(MakeWindow(4, 0.9, 10)).empty());  // (1.6+0.9)/2
  events = engine.Evaluate(MakeWindow(5, 0.3, 10));
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].firing);
  EXPECT_TRUE(engine.Firing().empty());
  EXPECT_EQ(engine.events().size(), 2u);
}

TEST(AlertEngineTest, NodeDownScopesPerNode) {
  AlertRule rule;
  rule.name = "node_down";
  rule.kind = AlertKind::kNodeDown;
  AlertEngine engine({rule});

  FederatedWindow window = MakeWindow(0, 0, 0);
  window.nodes.resize(2);
  window.nodes[0].node = 0;
  window.nodes[0].scrape_ok = true;
  window.nodes[0].state = "up";
  window.nodes[1].node = 1;
  window.nodes[1].scrape_ok = true;
  window.nodes[1].state = "up";
  EXPECT_TRUE(engine.Evaluate(window).empty());

  window.seq = 1;
  window.nodes[1].scrape_ok = false;
  window.nodes[1].state = "down";
  auto events = engine.Evaluate(window);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].firing);
  EXPECT_EQ(events[0].node, "1");

  window.seq = 2;  // unchanged: no duplicate transitions
  EXPECT_TRUE(engine.Evaluate(window).empty());

  window.seq = 3;
  window.nodes[1].scrape_ok = true;
  window.nodes[1].state = "up";
  events = engine.Evaluate(window);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_FALSE(events[0].firing);
  EXPECT_EQ(events[0].node, "1");
}

TEST(AlertEngineTest, CounterRatioAndQueueRules) {
  AlertEngine engine({*ParseAlertRule("lost:counter_nonzero:lost"),
                      *ParseAlertRule("drops:ratio_above:drop/flush:0.5"),
                      *ParseAlertRule("qsat:queue_saturation:0.8")});

  FederatedWindow quiet = MakeWindow(0, 0, 0);
  quiet.counter_deltas = {{"drop", 0}, {"flush", 10}, {"lost", 0}};
  quiet.queue_saturation = 0.2;
  EXPECT_TRUE(engine.Evaluate(quiet).empty());

  FederatedWindow bad = MakeWindow(1, 0, 0);
  bad.counter_deltas = {{"drop", 8}, {"flush", 10}, {"lost", 3}};
  bad.queue_saturation = 0.95;
  const auto events = engine.Evaluate(bad);
  ASSERT_EQ(events.size(), 3u);
  for (const AlertEvent& event : events) EXPECT_TRUE(event.firing);

  // A window with no flushes holds the ratio rule's state (no denominator).
  FederatedWindow idle = MakeWindow(2, 0, 0);
  idle.counter_deltas = {{"drop", 0}, {"flush", 0}, {"lost", 0}};
  idle.queue_saturation = 0.0;
  const auto after = engine.Evaluate(idle);
  // lost and qsat resolve; drops holds because flush delta is 0.
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(engine.Firing(), std::vector<std::string>{"drops"});
}

TEST(AlertEngineTest, EventLogIsByteStable) {
  const auto run = [] {
    AlertEngine engine(DefaultClusterRules());
    FederatedWindow window = MakeWindow(0, 0.2, 5);
    window.nodes.resize(1);
    window.nodes[0].scrape_ok = true;
    (void)engine.Evaluate(window);
    window = MakeWindow(1, 2.5, 5);
    window.nodes.resize(1);
    window.nodes[0].scrape_ok = false;
    window.nodes[0].state = "down";
    (void)engine.Evaluate(window);
    window = MakeWindow(2, 0.1, 5);
    window.nodes.resize(1);
    window.nodes[0].scrape_ok = true;
    (void)engine.Evaluate(window);
    return engine.ToJsonl();
  };
  const std::string log = run();
  EXPECT_EQ(log, run());
  EXPECT_NE(log.find("\"rule\":\"node_down\""), std::string::npos);
  EXPECT_NE(log.find("\"state\":\"firing\""), std::string::npos);
  EXPECT_NE(log.find("\"state\":\"resolved\""), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace ganns
