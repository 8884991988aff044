// Operating SyCCL like a production deployment: load the cluster from a
// topology file, keep a persistent schedule library, and serve the traced
// collectives of a training job from it — synthesizing only on misses. The
// library is a serve::DiskLibrary driven in-process by a serve::Broker, the
// same path the syccl_serve daemon takes; run the example twice and the
// second run is served entirely from disk.
#include <cstdio>
#include <filesystem>

#include "core/asymmetric.h"
#include "serve/broker.h"
#include "sim/simulator.h"
#include "topo/builders.h"
#include "topo/serialize.h"
#include "training/trace.h"

int main() {
  using namespace syccl;

  // A deployment would read this file from its inventory system; we write it
  // from a builder to keep the example self-contained.
  const std::string topology_file =
      (std::filesystem::temp_directory_path() / "syccl_example_cluster.topo").string();
  {
    const topo::Topology cluster = topo::build_h800_cluster(2);
    std::FILE* f = std::fopen(topology_file.c_str(), "w");
    const std::string text = topo::to_text(cluster);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  // Load it back — the schedule pipeline only ever sees the parsed form.
  std::string text;
  {
    std::FILE* f = std::fopen(topology_file.c_str(), "r");
    char buf[4096];
    std::size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
  }
  const topo::Topology cluster = topo::from_text(text);
  std::printf("loaded %s\n", cluster.summary().c_str());

  const std::string library_dir =
      (std::filesystem::temp_directory_path() / "syccl_example_schedules").string();
  serve::DiskLibrary library({library_dir});
  serve::Broker broker(library);
  std::printf("library: %zu schedules in %s\n", library.stats().entries, library_dir.c_str());

  // Serve a training job's collectives.
  training::TrainSetup setup;
  setup.model = training::gpt3_6p7b();
  setup.mode = training::Parallelism::TensorParallel;
  setup.num_gpus = 16;
  setup.batch_tokens = 8192;
  for (const auto& call : training::trace_iteration(setup)) {
    serve::ServeRequest request;
    request.topology = cluster;
    request.kind = call.kind;
    request.total_bytes = call.bytes;
    const serve::ServeResponse r = broker.handle(request);
    std::printf("  %-14s %6.1f MB x%d: %.3f ms  [%s]\n", coll::kind_name(call.kind),
                call.bytes / 1e6, call.count, r.predicted_time * 1e3,
                r.hit ? "hit" : "synthesized");
  }
  const serve::Broker::Stats stats = broker.stats();
  std::printf("library: %zu schedules (%llu hits, %llu synthesized)\n",
              library.stats().entries, static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));

  // MoE layers issue asymmetric Alltoallv — the §8 heuristic path.
  const topo::TopologyGroups groups = topo::extract_groups(cluster);
  core::DemandMatrix moe(16, std::vector<std::uint64_t>(16, 64 << 10));
  for (int i = 0; i < 16; ++i) moe[i][i] = 0;
  for (int s = 0; s < 16; ++s) {
    if (s != 5) moe[s][5] = 4 << 20;  // one hot expert
  }
  const auto a2av = core::synthesize_alltoallv(moe, groups);
  const sim::Simulator sim(groups);
  std::printf("MoE Alltoallv (hot expert on rank 5): %.3f ms, valid=%s\n",
              sim.run(a2av).makespan * 1e3,
              core::verify_alltoallv(a2av, moe) ? "yes" : "NO");
  return 0;
}
