// Warehouse analysis at scale: generates a heterogeneous Treebank-like
// warehouse with controllable summarizability, materializes the fact
// table through the paged database, and contrasts algorithm behaviour
// under a constrained memory budget (COUNTER multipass, TD external
// sorts) — a miniature of the paper's §4.1-§4.3 experiments.
//
//   ./build/examples/warehouse_analysis [num_trees] [num_axes]

#include <cstdio>
#include <cstdlib>

#include "cube/algorithm.h"
#include "gen/workload.h"
#include "storage/temp_file.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  x3::ExperimentSetting setting;
  setting.num_trees = argc > 1 ? static_cast<size_t>(std::atol(argv[1]))
                               : 5000;
  setting.num_axes = argc > 2 ? static_cast<size_t>(std::atol(argv[2])) : 4;
  setting.coverage_holds = false;   // optional elements, like real XML
  setting.disjointness_holds = true;
  setting.dense = false;

  std::printf(
      "Treebank-like warehouse: %zu trees, %zu axes, coverage fails, "
      "disjointness holds (the paper's §4.1 setting)\n",
      setting.num_trees, setting.num_axes);

  // Characterize the generated dataset the way the paper describes its
  // inputs (element counts, depth, size).
  {
    auto db = x3::Database::Open({});
    if (!db.ok()) return 1;
    x3::TreebankGenerator gen(x3::MakeTreebankConfig(setting));
    if (!gen.LoadInto(db->get(), setting.num_trees).ok()) return 1;
    auto stats = (*db)->ComputeStats();
    if (!stats.ok()) return 1;
    std::printf(
        "dataset: %llu nodes (%llu elements, %llu attributes) in %llu "
        "trees; avg depth %.1f, max depth %u; %llu pages (%.1f MiB)\n\n",
        static_cast<unsigned long long>(stats->nodes),
        static_cast<unsigned long long>(stats->elements),
        static_cast<unsigned long long>(stats->attributes),
        static_cast<unsigned long long>(stats->documents),
        stats->avg_depth, stats->max_depth,
        static_cast<unsigned long long>(stats->data_pages),
        static_cast<double>(stats->data_pages) * 8192.0 / (1 << 20));
  }

  x3::Timer timer;
  auto workload = x3::BuildTreebankWorkload(setting);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }
  std::printf("Materialized %zu facts (%llu cuboids) in %.1f ms\n\n",
              workload->facts.size(),
              static_cast<unsigned long long>(
                  workload->lattice.num_cuboids()),
              timer.ElapsedSeconds() * 1e3);

  // A deliberately small budget, scaled to the data (the paper's box
  // had 1 GB for 10^5 trees; crossovers depend on the ratio).
  size_t budget_bytes = workload->facts.ApproxBytes() / 2 + 16 * 1024;
  std::printf("Working-memory budget: %zu KiB (fact table is %zu KiB)\n\n",
              budget_bytes / 1024, workload->facts.ApproxBytes() / 1024);

  std::printf("%-10s %10s %8s %8s %10s %10s\n", "algorithm", "ms", "passes",
              "sorts", "spilledMB", "peakKiB");
  for (x3::CubeAlgorithm algo :
       {x3::CubeAlgorithm::kCounter, x3::CubeAlgorithm::kBUC,
        x3::CubeAlgorithm::kBUCOpt, x3::CubeAlgorithm::kTD,
        x3::CubeAlgorithm::kTDOpt}) {
    x3::TempFileManager temp;
    x3::MemoryBudget budget(budget_bytes);
    x3::ExecutionContext ctx({&budget, &temp, nullptr, std::nullopt});
    x3::CubeComputeOptions options;
    options.exec = &ctx;
    options.properties = &workload->properties;
    x3::Timer t;
    auto cube =
        x3::ComputeCube(algo, workload->facts, workload->lattice, options);
    if (!cube.ok()) {
      std::fprintf(stderr, "%s: %s\n", x3::CubeAlgorithmToString(algo),
                   cube.status().ToString().c_str());
      return 1;
    }
    std::printf("%-10s %10.1f %8llu %8llu %10.2f %10llu\n",
                x3::CubeAlgorithmToString(algo), t.ElapsedSeconds() * 1e3,
                static_cast<unsigned long long>(ctx.costs().passes.value()),
                static_cast<unsigned long long>(ctx.costs().sorts.value()),
                static_cast<double>(ctx.costs().spill_bytes.value()) /
                    (1024.0 * 1024.0),
                static_cast<unsigned long long>(budget.peak() / 1024));
  }

  std::printf(
      "\nExpected shape (paper §4.6): BUC leads on sparse cubes; COUNTER\n"
      "is competitive until its counters outgrow memory and it goes\n"
      "multi-pass; TD pays an external sort per cuboid and trails.\n");
  return 0;
}
