// serve_mix: an in-process schedule broker over a fresh disk library, two
// closed-loop client threads, mostly hits (permuted re-requests inside
// stored size buckets) with a few misses (buckets not stored yet).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unistd.h>

#include "bench.h"
#include "layers.h"
#include "obs/scenario.h"
#include "obs/trace.h"
#include "runtime/validate.h"
#include "serve/broker.h"
#include "serve/canonical.h"
#include "serve/library.h"
#include "sim/simulator.h"
#include "topo/mutate.h"

namespace perfbench {

namespace {

namespace obs = syccl::obs;
namespace serve = syccl::serve;
using coll::CollKind;

const char* const kFabrics[] = {"dgx16", "a100x16", "a100x32"};
constexpr int kNumFabrics = 3;
const CollKind kKinds[] = {CollKind::AllReduce, CollKind::AllGather, CollKind::ReduceScatter,
                           CollKind::AllToAll};
constexpr int kNumKinds = 4;
/// Stored (read) buckets: log2 of the bucket size.
const int kReadBuckets[] = {16, 24, 28};  // 64 KiB, 16 MiB, 256 MiB
constexpr int kNumReadBuckets = 3;
/// Miss buckets: the powers of two from 1 KiB to 4 GiB that are not read
/// buckets.
constexpr int kMinBucketLog2 = 10;
constexpr int kMaxBucketLog2 = 32;
constexpr int kPermsPerFabric = 8;
/// A round reads every (fabric, collective, read bucket) twice and writes
/// four new keys: 4 of 76 requests are misses, about 1 in 20.
constexpr int kReadsPerKey = 2;
constexpr int kWritesPerRound = 4;
constexpr int kRoundSize =
    kNumFabrics * kNumKinds * kNumReadBuckets * kReadsPerKey + kWritesPerRound;
constexpr int kClients = 2;
constexpr int kBrokerThreads = 2;
constexpr int kSynthesisThreads = 1;
constexpr int kSetupReps = 3;
/// A round takes about 0.8 s on a 4-core machine. A run makes
/// 1.25 × seconds rounds: a fixed amount of work.
constexpr double kNominalRoundsPerSecond = 1.25;
constexpr int kReplaySamples = 40;
constexpr int kPutReplays = 10;

struct Fabric {
  std::string name;
  topo::Topology base;
  std::vector<topo::Topology> perms;
  std::vector<std::unique_ptr<topo::TopologyGroups>> perm_groups;  ///< for checks
  std::mutex groups_mutex;
};

struct Request {
  int fabric = 0;
  int kind = 0;
  std::uint64_t bytes = 0;
  int perm = 0;
  bool write = false;
};

/// One read's answer, kept to compare against its unpermuted twin.
struct ReadRecord {
  int fabric = 0;
  int kind = 0;
  std::uint64_t bytes = 0;
  double predicted = 0.0;
};

struct ClientLog {
  Samples hit_ms;
  Samples hit_cpu_ms;  ///< the client thread's CPU time per hit
  Samples miss_ms;
  double active_s = 0.0;
  double check_cpu_s = 0.0;
  double miss_wait_ms = 0.0;
  long misses = 0;
  long requests = 0;
  std::vector<ReadRecord> reads;
  std::vector<std::string> written_keys;
};

/// Everything serve_mix sets up: fabrics with their permuted copies, the
/// library (in a directory of its own) and the broker over it.
struct ServeState {
  std::string dir;
  std::vector<std::unique_ptr<Fabric>> fabrics;
  std::unique_ptr<serve::DiskLibrary> library;
  std::unique_ptr<serve::Broker> broker;

  ~ServeState() { reset(); }
  void reset() {
    broker.reset();
    library.reset();
    fabrics.clear();
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
};

serve::ServeRequest make_request(const Fabric& f, const Request& r, bool base) {
  serve::ServeRequest req;
  req.topology = base ? f.base : f.perms[static_cast<std::size_t>(r.perm)];
  req.kind = kKinds[r.kind];
  req.total_bytes = r.bytes;
  return req;
}

void setup(ServeState& st, const Options& opts) {
  Rng rng(opts.seed);
  for (int fi = 0; fi < kNumFabrics; ++fi) {
    auto f = std::make_unique<Fabric>();
    f->name = kFabrics[fi];
    f->base = obs::build_scenario_topology(kFabrics[fi]);
    const int n = static_cast<int>(f->base.num_gpus());
    for (int p = 0; p < kPermsPerFabric; ++p) {
      std::vector<int> perm(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
      rng.shuffle(perm);
      f->perms.push_back(topo::permute_gpu_ranks(f->base, perm));
    }
    f->perm_groups.resize(kPermsPerFabric);
    st.fabrics.push_back(std::move(f));
  }
  serve::DiskLibraryConfig lib;
  lib.dir = st.dir;
  st.library = std::make_unique<serve::DiskLibrary>(lib);
  serve::BrokerConfig cfg;
  // Two clients and two single-threaded broker syntheses: at most four busy
  // threads. Schedules do not depend on the thread count (the scenario key
  // leaves it out for that reason).
  cfg.num_threads = kBrokerThreads;
  cfg.synthesis.num_threads = kSynthesisThreads;
  st.broker = std::make_unique<serve::Broker>(*st.library, cfg);
  // Fill: every (fabric, collective, read bucket), synthesized through the
  // broker as the misses of a cold service.
  for (int fi = 0; fi < kNumFabrics; ++fi) {
    for (int k = 0; k < kNumKinds; ++k) {
      for (int b : kReadBuckets) {
        Request r{fi, k, 1ull << b, 0, true};
        st.broker->handle(make_request(*st.fabrics[static_cast<std::size_t>(fi)], r, true));
      }
    }
  }
}

/// The miss keys, stratified: each run of twelve consecutive keys holds one
/// of every (fabric, collective), with seeded buckets and order, so every
/// prefix a run consumes has the same mix.
std::vector<Request> make_write_keys(Rng& rng) {
  std::vector<int> buckets;
  for (int b = kMinBucketLog2; b <= kMaxBucketLog2; ++b) {
    if (std::find(std::begin(kReadBuckets), std::end(kReadBuckets), b) == std::end(kReadBuckets)) {
      buckets.push_back(b);
    }
  }
  std::vector<std::vector<int>> order(kNumFabrics * kNumKinds, buckets);
  for (auto& o : order) rng.shuffle(o);
  std::vector<Request> keys;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    std::vector<Request> cycle;
    for (int fi = 0; fi < kNumFabrics; ++fi) {
      for (int k = 0; k < kNumKinds; ++k) {
        const int b = order[static_cast<std::size_t>(fi * kNumKinds + k)][i];
        cycle.push_back({fi, k, 1ull << b, 0, true});
      }
    }
    rng.shuffle(cycle);
    keys.insert(keys.end(), cycle.begin(), cycle.end());
  }
  return keys;
}

/// A read of a stored (fabric, collective, bucket) at a seeded size inside
/// the bucket (5/8, 6/8, 7/8 or all of it) on a seeded permuted topology.
Request make_read(Rng& rng, int fabric, int kind, int bucket_log2) {
  Request r;
  r.fabric = fabric;
  r.kind = kind;
  r.bytes = (1ull << bucket_log2) / 8 * (5 + rng.below(4));
  r.perm = static_cast<int>(rng.below(kPermsPerFabric));
  return r;
}

Request random_read(Rng& rng) {
  const int fabric = static_cast<int>(rng.below(kNumFabrics));
  const int kind = static_cast<int>(rng.below(kNumKinds));
  return make_read(rng, fabric, kind, kReadBuckets[rng.below(kNumReadBuckets)]);
}

/// One round in seeded order, with the writes in its first half so the
/// round's tail is reads and the end-of-round join leaves a client idle for
/// at most about one hit. A capped round (`size` < kRoundSize, smoke runs)
/// keeps a seeded subset with at least one write.
std::vector<Request> make_round(Rng& rng, const std::vector<Request>& write_keys,
                                std::size_t& next_write, long size) {
  std::vector<Request> reads;
  for (int fi = 0; fi < kNumFabrics; ++fi) {
    for (int k = 0; k < kNumKinds; ++k) {
      for (int b : kReadBuckets) {
        for (int i = 0; i < kReadsPerKey; ++i) reads.push_back(make_read(rng, fi, k, b));
      }
    }
  }
  rng.shuffle(reads);
  const long writes = size >= kRoundSize ? kWritesPerRound : 1;
  reads.resize(static_cast<std::size_t>(std::max(0L, size - writes)));
  std::vector<Request> round = reads;
  // The loops stop before the keys run out; the first round of a loop may
  // be short of writes instead.
  for (long w = 0; w < writes && next_write < write_keys.size(); ++w) {
    Request r = write_keys[next_write++];
    r.perm = static_cast<int>(rng.below(kPermsPerFabric));
    const std::size_t half = (round.size() + 1) / 2;
    round.insert(round.begin() + static_cast<long>(rng.below(half + 1)), r);
  }
  return round;
}

/// Every request of serve_mix runs on a rank-permuted topology, so a failed
/// ReduceScatter or AllReduce is the known PermutedReduce defect.
void fail_or_defect(Checker& checker, int kind, const std::string& what) {
  if (kKinds[kind] == CollKind::ReduceScatter || kKinds[kind] == CollKind::AllReduce) {
    checker.defect(Defect::PermutedReduce);
  } else {
    checker.fail(what);
  }
}

class Clients {
 public:
  Clients(ServeState& st, Checker& checker) : st_(st), checker_(checker) {}

  /// Runs one round on kClients threads (closed loop: each client sends its
  /// next request when the previous one has been answered and checked).
  void run_round(const std::vector<Request>& round, std::vector<ClientLog>& logs) {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[static_cast<std::size_t>(c)];
        const double start = now_s();
        double check_s = 0.0;
        for (std::size_t i; (i = next.fetch_add(1)) < round.size();) {
          check_s += serve_one(round[i], log);
        }
        log.active_s += now_s() - start - check_s;
      });
    }
    for (auto& t : threads) t.join();
  }

 private:
  /// Sends one request and checks the answer; returns the check time.
  double serve_one(const Request& r, ClientLog& log) {
    Fabric& f = *st_.fabrics[static_cast<std::size_t>(r.fabric)];
    const serve::ServeRequest req = make_request(f, r, false);
    const std::string what = f.name + " " + coll::kind_name(req.kind) + " " +
                             std::to_string(r.bytes) + (r.write ? " write" : " read");
    checker_.attempt();
    ++log.requests;
    try {
      const double cpu0 = thread_cpu_s();
      const double t0 = now_s();
      const serve::ServeResponse resp = st_.broker->handle(req);
      const double ms = (now_s() - t0) * 1e3;
      const double cpu_ms = (thread_cpu_s() - cpu0) * 1e3;
      if (resp.hit) {
        log.hit_ms.add(ms);
        log.hit_cpu_ms.add(cpu_ms);
      } else {
        log.miss_ms.add(ms);
        log.miss_wait_ms += resp.synth_seconds * 1e3;
        ++log.misses;
      }
      if (r.write) log.written_keys.push_back(resp.scenario_key);
      const double c0 = now_s();
      const double check_cpu0 = thread_cpu_s();
      const coll::Collective c = serve::make_serve_collective(
          req.kind, static_cast<int>(req.topology.num_gpus()), req.total_bytes, 0);
      const std::string err =
          checker_.check(resp.schedule, c, groups(f, r.perm), req.topology,
                         f.name + "/" + std::to_string(r.perm) + " " + what, resp.predicted_time);
      if (!err.empty()) {
        fail_or_defect(checker_, r.kind, what + ": " + err);
      } else if (!r.write) {
        log.reads.push_back({r.fabric, r.kind, r.bytes, resp.predicted_time});
      }
      log.check_cpu_s += thread_cpu_s() - check_cpu0;
      return now_s() - c0;
    } catch (const std::exception& e) {
      fail_or_defect(checker_, r.kind, what + ": " + e.what());
      return 0.0;
    }
  }

  const topo::TopologyGroups& groups(Fabric& f, int perm) {
    std::lock_guard<std::mutex> lock(f.groups_mutex);
    auto& g = f.perm_groups[static_cast<std::size_t>(perm)];
    if (!g) {
      g = std::make_unique<topo::TopologyGroups>(
          topo::extract_groups(f.perms[static_cast<std::size_t>(perm)]));
    }
    return *g;
  }

  ServeState& st_;
  Checker& checker_;
};

/// A permuted hit must predict the same time as the same request on the
/// unpermuted topology. Each twin is asked once, after the timed loop.
void check_twins(ServeState& st, Checker& checker, const std::vector<ClientLog>& logs) {
  std::map<std::tuple<int, int, std::uint64_t>, double> twins;
  for (const ClientLog& log : logs) {
    for (const ReadRecord& rec : log.reads) {
      const auto key = std::make_tuple(rec.fabric, rec.kind, rec.bytes);
      auto it = twins.find(key);
      if (it == twins.end()) {
        Request r{rec.fabric, rec.kind, rec.bytes, 0, false};
        const Fabric& f = *st.fabrics[static_cast<std::size_t>(rec.fabric)];
        it = twins.emplace(key, st.broker->handle(make_request(f, r, true)).predicted_time).first;
      }
      if (std::abs(rec.predicted - it->second) > 1e-9 * it->second) {
        fail_or_defect(checker, rec.kind, std::string("permuted hit ") + kFabrics[rec.fabric] + " " +
                     coll::kind_name(kKinds[rec.kind]) + " " + std::to_string(rec.bytes) +
                     " predicts " + std::to_string(rec.predicted) + " s, its twin " +
                     std::to_string(it->second) + " s");
      }
    }
  }
}

/// Replays sampled hits through the public calls the broker's hit path
/// makes, timing each, next to Broker::handle for the same request.
void replay_hits(ServeState& st, Checker& checker, Rng& rng, LayerInputs& in) {
  const std::string fingerprint = serve::options_fingerprint(st.broker->config().synthesis);
  for (int i = 0; i < kReplaySamples; ++i) {
    const Request r = random_read(rng);
    const Fabric& f = *st.fabrics[static_cast<std::size_t>(r.fabric)];
    const serve::ServeRequest req = make_request(f, r, false);
    // Step times commit only when the whole replay succeeds.
    double steps[7] = {};
    try {
      double t = now_s();
      const auto lap = [&t](double& into) {
        const double now = now_s();
        into = (now - t) * 1e3;
        t = now;
      };
      const serve::ServeResponse resp = st.broker->handle(req);
      lap(steps[0]);
      const topo::TopologyGroups groups = topo::extract_groups(req.topology);
      lap(steps[1]);
      const serve::CanonicalTopology canon = serve::canonicalize(groups);
      const std::string key = serve::scenario_key(canon, req.kind, -1,
                                                  serve::size_bucket(req.total_bytes), fingerprint);
      lap(steps[2]);
      const std::optional<serve::ScheduleBlob> blob = st.library->get(key);
      lap(steps[3]);
      if (!resp.hit || !blob) throw std::runtime_error("replayed read was not a hit");
      sim::Schedule schedule = blob->schedule;
      const coll::Collective c =
          serve::make_serve_collective(req.kind, canon.num_ranks, req.total_bytes, 0);
      serve::apply_rank_map(schedule, serve::invert_permutation(canon.perm), c, c);
      const double scale =
          static_cast<double>(req.total_bytes) / static_cast<double>(blob->bucket_bytes);
      for (auto& piece : schedule.pieces) piece.bytes *= scale;
      lap(steps[4]);
      const bool valid = syccl::runtime::validate_schedule(schedule, c, groups).ok;
      lap(steps[5]);
      const double resim = sim::Simulator(groups).time_collective(schedule, c);
      lap(steps[6]);
      if (!valid || std::abs(resim - resp.predicted_time) > 1e-9 * resp.predicted_time) {
        throw std::runtime_error("replay disagrees with Broker::handle");
      }
    } catch (const std::exception& e) {
      checker.attempt();
      fail_or_defect(checker, r.kind, std::string("hit replay: ") + e.what());
      continue;
    }
    in.replay_handle_ms += steps[0];
    in.replay_extract_ms += steps[1];
    in.replay_canon_ms += steps[2];
    in.replay_get_ms += steps[3];
    in.replay_relabel_ms += steps[4];
    in.replay_validate_ms += steps[5];
    in.replay_resim_ms += steps[6];
    ++in.replayed;
  }
}

/// Times DiskLibrary::put of blobs the loop's misses stored, into a
/// library of its own: the store path of a miss.
void replay_puts(ServeState& st, const std::vector<ClientLog>& logs, LayerInputs& in) {
  serve::DiskLibraryConfig cfg;
  cfg.dir = st.dir + "-puts";
  std::filesystem::remove_all(cfg.dir);
  {
    serve::DiskLibrary scratch(cfg);
    for (const ClientLog& log : logs) {
      for (const std::string& key : log.written_keys) {
        if (in.puts >= kPutReplays) break;
        const std::optional<serve::ScheduleBlob> blob = st.library->get(key);
        if (!blob) continue;
        const double t0 = now_s();
        scratch.put(*blob);
        in.put_ms += (now_s() - t0) * 1e3;
        ++in.puts;
      }
    }
  }
  std::filesystem::remove_all(cfg.dir);
}

}  // namespace

WorkloadResult run_serve_mix(const Options& opts, Checker& checker) {
  WorkloadResult out;
  ServeState st;
  st.dir = std::filesystem::absolute(opts.work_dir).string() + "/serve-library-" +
           std::to_string(::getpid());
  median_setup(kSetupReps, out, [&] {
    st.reset();
    clear_solve_cache();
    setup(st, opts);
  });

  Rng rng(opts.seed ^ 0x5851f42d4c957f2dull);
  std::vector<Request> write_keys = make_write_keys(rng);
  std::size_t next_write = 0;
  Clients clients(st, checker);
  std::vector<ClientLog> logs(kClients);
  long issued = 0;
  const auto next_round = [&] {
    long size = kRoundSize;
    if (opts.max_requests > 0) size = std::min(size, opts.max_requests - issued);
    issued += size;
    return make_round(rng, write_keys, next_write, size);
  };
  const int rounds = std::max(1, static_cast<int>(std::lround(opts.seconds * kNominalRoundsPerSecond)));
  // Rounds left in a loop of `n`: stops at the request cap (each loop has
  // its own) or before the miss keys run out.
  const auto more = [&](int done, int n) {
    return done < n && (opts.max_requests == 0 || issued < opts.max_requests) &&
           next_write + kWritesPerRound <= write_keys.size();
  };

  const CounterSnapshot before = CounterSnapshot::take();
  double loop_cpu_start = process_cpu_s();
  clients.run_round(next_round(), logs);
  out.unit_counts = CounterSnapshot::take().minus(before);

  LayerInputs in;
  std::vector<ClientLog> reference_logs(kClients);
  std::vector<ClientLog> traced_logs(kClients);
  if (!opts.trace) {
    for (int done = 1; more(done, rounds); ++done) clients.run_round(next_round(), logs);
  } else {
    // After the first round, a third of the rounds run untraced as the
    // reference for the tracing overhead, and the rest run traced. Each
    // loop runs at least one round.
    const int reference_rounds = std::max(1, (rounds - 1) / 3);
    const int traced_rounds = std::max(1, rounds - 1 - reference_rounds);
    issued = 0;
    for (int done = 0; done == 0 || more(done, reference_rounds); ++done) {
      clients.run_round(next_round(), reference_logs);
    }
    issued = 0;
    obs::trace_clear();
    const CounterSnapshot loop_before = CounterSnapshot::take();
    loop_cpu_start = process_cpu_s();
    obs::set_tracing(true);
    for (int done = 0; done == 0 || more(done, traced_rounds); ++done) {
      clients.run_round(next_round(), traced_logs);
    }
    obs::set_tracing(false);
    in.loop = CounterSnapshot::take().minus(loop_before);
    in.trace = summarize_trace(obs::trace_snapshot());
    obs::trace_clear();
  }

  double loop_cpu_s = process_cpu_s() - loop_cpu_start;
  const std::vector<ClientLog>& measured = opts.trace ? traced_logs : logs;
  double active_s = 0.0;
  long requests = 0;
  for (const ClientLog& log : measured) {
    out.primary_ms.append(log.hit_ms);
    out.primary_cpu_ms.append(log.hit_cpu_ms);
    out.secondary_ms.append(log.miss_ms);
    active_s += log.active_s / kClients;
    loop_cpu_s -= log.check_cpu_s;
    requests += log.requests;
  }
  out.primary_per_s = active_s > 0.0 ? static_cast<double>(requests) / active_s : 0.0;
  out.primary_per_cpu_s = loop_cpu_s > 0.0 ? static_cast<double>(requests) / loop_cpu_s : 0.0;
  out.hit_ratio = requests > 0 ? static_cast<double>(out.primary_ms.size()) /
                                     static_cast<double>(requests)
                               : 0.0;

  if (opts.trace) {
    Samples untraced_hits;
    for (const ClientLog& log : reference_logs) untraced_hits.append(log.hit_ms);
    in.unit = out.unit_counts;
    in.requests = requests;
    in.synth_wall_ms = 0.0;
    for (const ClientLog& log : measured) {
      in.miss_wait_ms += log.miss_wait_ms;
      in.misses += log.misses;
    }
    const auto synth = in.trace.by_name.find("serve.synthesize");
    if (synth != in.trace.by_name.end()) in.synth_wall_ms = synth->second.total_ms;
    in.pool_threads = kSynthesisThreads;
    in.overhead_ratio =
        untraced_hits.p50() > 0.0 ? out.primary_ms.p50() / untraced_hits.p50() : 0.0;
    replay_hits(st, checker, rng, in);
    replay_puts(st, measured, in);
    out.layers = assemble_layers(in);
    write_layer_file(layer_file(opts), opts.workload, opts.seed, in, out.layers);
  }

  std::vector<ClientLog> all = logs;
  all.insert(all.end(), reference_logs.begin(), reference_logs.end());
  all.insert(all.end(), traced_logs.begin(), traced_logs.end());
  check_twins(st, checker, all);
  return out;
}

}  // namespace perfbench
