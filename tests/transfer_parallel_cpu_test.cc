// Tests for the PCIe transfer/stream model (§III-B remark) and the
// multi-core CPU GGraphCon (§IV-B remark).

#include <gtest/gtest.h>

#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "graph/cpu_nsw.h"
#include "graph/parallel_cpu_nsw.h"
#include "gpusim/transfer.h"

namespace ganns {
namespace {

TEST(TransferModelTest, TransferTimeIsLatencyPlusBandwidth) {
  gpusim::PcieSpec pcie;
  pcie.bandwidth_gb_per_s = 10.0;
  pcie.latency_s = 10e-6;
  // 1 MB at 10 GB/s = 100 us, plus 10 us latency.
  EXPECT_NEAR(gpusim::TransferSeconds(pcie, 1'000'000), 110e-6, 1e-9);
  EXPECT_NEAR(gpusim::TransferSeconds(pcie, 0), 10e-6, 1e-12);
}

TEST(TransferModelTest, StreamingOverlapsTransferWithCompute) {
  // Kernel-dominated batch: streaming hides nearly all transfer time.
  const double upload = 0.1e-3;
  const double kernel = 20e-3;
  const double download = 0.16e-3;
  const double sequential =
      gpusim::SequentialMakespan(upload, kernel, download);
  const double streamed =
      gpusim::StreamedMakespan(upload, kernel, download, 4);
  EXPECT_GT(sequential, streamed);
  EXPECT_LT(streamed - kernel, (upload + download) / 2);
  // One chunk degenerates to the sequential schedule.
  EXPECT_DOUBLE_EQ(gpusim::StreamedMakespan(upload, kernel, download, 1),
                   sequential);
}

TEST(TransferModelTest, PaperExampleTransferIsNegligible) {
  // The paper's arithmetic: 2000 queries, k = 100 -> ~1 MB of results vs
  // PCIe 3.0 x16 ~10 GB/s. That is ~0.1 ms, tiny against a multi-ms batch.
  gpusim::PcieSpec pcie;
  const std::size_t result_bytes = 2000 * 100 * (4 + 4);
  const double transfer = gpusim::TransferSeconds(pcie, result_bytes);
  EXPECT_LT(transfer, 0.5e-3);
}

TEST(ParallelCpuNswTest, QualityMatchesSerialCpuBuilder) {
  const data::Dataset base =
      data::GenerateBase(data::PaperDataset("SIFT1M"), 1200, 10);
  const data::Dataset queries =
      data::GenerateQueries(data::PaperDataset("SIFT1M"), 30, 1200, 10);
  const data::GroundTruth truth = data::BruteForceKnn(base, queries, 10);

  const graph::CpuBuildResult serial = graph::BuildNswCpu(base, {});
  const graph::ParallelCpuBuildResult parallel =
      graph::BuildNswParallelCpu(base, {}, /*num_groups=*/8);
  EXPECT_EQ(parallel.num_groups, 8u);

  const auto recall_of = [&](const graph::ProximityGraph& graph) {
    std::vector<std::vector<VertexId>> results(queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      for (const auto& n :
           graph::BeamSearch(graph, base, queries.Point(q), 10, 64, 0)) {
        results[q].push_back(n.id);
      }
    }
    return data::MeanRecall(results, truth, 10);
  };
  // §IV-B remark: the divide-and-conquer scheme is hardware-independent;
  // on a CPU pool it yields the same quality class as sequential insertion.
  EXPECT_GE(recall_of(parallel.graph), recall_of(serial.graph) - 0.03);
}

TEST(ParallelCpuNswTest, RespectsDegreeBoundsAndIsDeterministic) {
  const data::Dataset base =
      data::GenerateBase(data::PaperDataset("SIFT1M"), 800, 11);
  graph::NswParams params;
  params.d_min = 8;
  params.d_max = 16;
  const auto a = graph::BuildNswParallelCpu(base, params, 6);
  const auto b = graph::BuildNswParallelCpu(base, params, 6);
  for (std::size_t v = 0; v < base.size(); ++v) {
    EXPECT_LE(a.graph.Degree(static_cast<VertexId>(v)), params.d_max);
    const auto ids_a = a.graph.Neighbors(static_cast<VertexId>(v));
    const auto ids_b = b.graph.Neighbors(static_cast<VertexId>(v));
    for (std::size_t s = 0; s < params.d_max; ++s) {
      ASSERT_EQ(ids_a[s], ids_b[s]);
    }
  }
}

}  // namespace
}  // namespace ganns
