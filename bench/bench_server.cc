// Closed-loop multi-tenant workload driver for the X3Server serving
// layer (the bench half of scripts/workload_harness.py).
//
// N client threads share one server over one database holding BOTH
// corpora (Treebank trees and DBLP articles — two tenants, two query
// shapes). Each client runs a seeded random query mix — shape, target
// cuboid (or the full cube), algorithm (safe and unsafe variants),
// iceberg threshold — paced to a target aggregate QPS, waiting for each
// answer before issuing the next (closed loop). When the run drains,
// the driver reports p50/p95/p99 latency interpolated from the metric
// registry's x3_server_query_latency_seconds histogram and cache hit
// rates from the x3_server_* counters, as one JSON object on stdout.
//
// Observability artifacts (the statusz/query-log half of the
// harness): --query-log-out dumps the server's per-query JSONL log,
// --statusz-out dumps a Statusz() JSON snapshot taken right after the
// run drained, --slow-ms arms the slow-query lane, and --stall-ms
// injects ONE deliberately stalled query (ServerRequest::
// debug_hold_seconds) with the watchdog armed to flag it — the
// end-to-end fixture scripts/check_observability.py validates.
//
// The report also carries the run's deltas of x3_cube_computations_total
// and x3_cube_result_cells_total: how many lattice computes the misses
// ran and how many cells those computes produced.
//
// Flags (all optional): --clients=N --qps=Q --queries=N --seed=S
// --threads=N --cache-kb=N --trees=N --articles=N --slow-ms=N
// --stall-ms=N --watchdog-ms=N --statusz-out=PATH --query-log-out=PATH

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cube/algorithm.h"
#include "gen/dblp_gen.h"
#include "gen/treebank_gen.h"
#include "gen/workload.h"
#include "schema/dtd_parser.h"
#include "server/x3_server.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/random.h"

namespace {

struct Flags {
  size_t clients = 4;
  double qps = 200;       // aggregate target across all clients
  size_t queries = 400;   // total, split across clients
  uint64_t seed = 1;
  size_t threads = 0;     // server workers; 0 = hardware concurrency
  size_t cache_kb = 256;
  size_t trees = 300;
  size_t articles = 400;
  double slow_ms = 0;      // slow-query lane threshold; 0 = disabled
  double stall_ms = 0;     // inject one stalled query of this length
  double watchdog_ms = 0;  // watchdog tick; 0 = derived from stall_ms
  std::string statusz_out;    // write a Statusz() JSON snapshot here
  std::string query_log_out;  // write the query log JSONL here
};

uint64_t ParseU64(const char* s) {
  return static_cast<uint64_t>(std::strtoull(s, nullptr, 10));
}

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (eq == nullptr) continue;
    std::string key(arg, eq - arg);
    const char* value = eq + 1;
    if (key == "--clients") flags.clients = ParseU64(value);
    else if (key == "--qps") flags.qps = std::strtod(value, nullptr);
    else if (key == "--queries") flags.queries = ParseU64(value);
    else if (key == "--seed") flags.seed = ParseU64(value);
    else if (key == "--threads") flags.threads = ParseU64(value);
    else if (key == "--cache-kb") flags.cache_kb = ParseU64(value);
    else if (key == "--trees") flags.trees = ParseU64(value);
    else if (key == "--articles") flags.articles = ParseU64(value);
    else if (key == "--slow-ms") flags.slow_ms = std::strtod(value, nullptr);
    else if (key == "--stall-ms") flags.stall_ms = std::strtod(value, nullptr);
    else if (key == "--watchdog-ms") {
      flags.watchdog_ms = std::strtod(value, nullptr);
    } else if (key == "--statusz-out") {
      flags.statusz_out = value;
    } else if (key == "--query-log-out") {
      flags.query_log_out = value;
    }
  }
  return flags;
}

struct Tenant {
  std::string name;
  x3::CubeQuery query;
  x3::LatticeProperties properties;
  uint64_t num_cuboids = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv);

  auto db = x3::Database::Open({});
  if (!db.ok()) {
    std::fprintf(stderr, "db open: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // Tenant 1: Treebank with both summarizability properties failing
  // (forces fact-id roll-ups and algorithm downgrades).
  x3::ExperimentSetting setting;
  setting.num_axes = 3;
  setting.num_trees = flags.trees;
  setting.coverage_holds = false;
  setting.disjointness_holds = false;
  setting.dense = true;
  setting.seed = flags.seed;
  x3::TreebankConfig config = x3::MakeTreebankConfig(setting);
  x3::TreebankGenerator treebank_gen(config);
  if (!treebank_gen.LoadInto(db->get(), setting.num_trees).ok()) return 1;

  // Tenant 2: DBLP (§4.5's corpus; author repeats/missing as in real
  // DBLP).
  x3::DblpConfig dblp_config;
  dblp_config.seed = flags.seed + 1;
  x3::DblpGenerator dblp_gen(dblp_config);
  if (!dblp_gen.LoadInto(db->get(), flags.articles).ok()) return 1;

  x3::X3Engine engine(db->get());
  std::vector<Tenant> tenants(2);
  tenants[0].name = "treebank";
  tenants[0].query = x3::MakeTreebankQuery(config);
  tenants[1].name = "dblp";
  tenants[1].query = x3::MakeDblpQuery();
  const std::string dtds[2] = {treebank_gen.MatchingDtd(), x3::DblpDtd()};
  const std::string fact_tags[2] = {x3::TreebankRootTag(), "article"};
  for (int t = 0; t < 2; ++t) {
    auto schema = x3::ParseDtd(dtds[t]);
    if (!schema.ok()) return 1;
    auto prepared = engine.Prepare(tenants[t].query);
    if (!prepared.ok()) return 1;
    tenants[t].num_cuboids = prepared->lattice.num_cuboids();
    auto properties = x3::InferLatticeProperties(*schema, prepared->lattice,
                                                 fact_tags[t]);
    if (!properties.ok()) return 1;
    tenants[t].properties = std::move(*properties);
  }

  x3::X3ServerOptions options;
  options.num_threads = flags.threads;
  options.cache_capacity_bytes = flags.cache_kb << 10;
  // The validation scripts require one log record per submitted query,
  // so the ring must hold the whole run (+ the injected stall).
  options.query_log_capacity = flags.queries + 16;
  options.slow_query_threshold_seconds = flags.slow_ms / 1e3;
  if (flags.stall_ms > 0 || flags.watchdog_ms > 0) {
    // Watchdog armed for deadline-less queries: the injected stall must
    // cross the stuck threshold while healthy queries stay far below it.
    double watchdog_ms =
        flags.watchdog_ms > 0 ? flags.watchdog_ms : flags.stall_ms / 4;
    options.watchdog_interval_seconds = watchdog_ms / 1e3;
    options.stuck_after_seconds =
        flags.stall_ms > 0 ? flags.stall_ms / 2 / 1e3 : 60.0;
  }
  x3::MetricRegistry& registry = x3::MetricRegistry::Global();
  x3::Counter* computations =
      registry.GetCounter("x3_cube_computations_total", "");
  x3::Counter* result_cells =
      registry.GetCounter("x3_cube_result_cells_total", "");
  const uint64_t computations_before = computations->value();
  const uint64_t result_cells_before = result_cells->value();
  x3::X3Server server(db->get(), options);

  const x3::CubeAlgorithm kAlgorithms[] = {
      x3::CubeAlgorithm::kCounter,  x3::CubeAlgorithm::kBUC,
      x3::CubeAlgorithm::kBUCCust,  x3::CubeAlgorithm::kTD,
      x3::CubeAlgorithm::kTDOptAll, x3::CubeAlgorithm::kTDCust,
  };

  std::atomic<uint64_t> ok_count{0}, failed_count{0};
  auto wall_start = std::chrono::steady_clock::now();

  // The deliberately stalled query: submitted before the clients so it
  // is in flight while the healthy load runs; the watchdog must flag
  // it (and nothing else).
  std::shared_ptr<x3::X3Server::Ticket> stall_ticket;
  if (flags.stall_ms > 0) {
    x3::ServerRequest stall;
    stall.query = tenants[0].query;
    stall.properties = &tenants[0].properties;
    stall.target = 0;
    stall.tenant = "stall-probe";
    stall.debug_hold_seconds = flags.stall_ms / 1e3;
    stall_ticket = server.Submit(std::move(stall));
  }

  std::vector<std::thread> clients;
  clients.reserve(flags.clients);
  for (size_t c = 0; c < flags.clients; ++c) {
    clients.emplace_back([&, c] {
      size_t quota = flags.queries / flags.clients +
                     (c < flags.queries % flags.clients ? 1 : 0);
      double interval_s =
          flags.qps > 0 ? static_cast<double>(flags.clients) / flags.qps : 0;
      x3::Random rng(flags.seed * 1000 + c);
      auto next_slot = std::chrono::steady_clock::now();
      for (size_t i = 0; i < quota; ++i) {
        // Closed loop with pacing: wait for this client's next slot,
        // issue, block on the answer.
        if (interval_s > 0) {
          std::this_thread::sleep_until(next_slot);
          next_slot += std::chrono::duration_cast<
              std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(interval_s));
        }
        Tenant& tenant = tenants[rng.Uniform(2)];
        x3::ServerRequest request;
        request.query = tenant.query;
        request.properties = &tenant.properties;
        request.algorithm = kAlgorithms[rng.Uniform(6)];
        request.min_count = rng.Bernoulli(0.2) ? 2 : 0;
        request.tenant = tenant.name;
        if (!rng.Bernoulli(1.0 / 8)) {
          request.target =
              rng.Uniform(static_cast<uint32_t>(tenant.num_cuboids));
        }
        auto answer = server.Execute(std::move(request));
        if (answer.ok()) {
          ok_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          failed_count.fetch_add(1, std::memory_order_relaxed);
          std::fprintf(stderr, "query failed: %s\n",
                       answer.status().ToString().c_str());
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  if (stall_ticket != nullptr) {
    auto answer = stall_ticket->Wait();
    if (answer.ok()) {
      ok_count.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed_count.fetch_add(1, std::memory_order_relaxed);
      std::fprintf(stderr, "stall probe failed: %s\n",
                   answer.status().ToString().c_str());
    }
  }
  double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Observability artifacts, captured while the server is still alive.
  if (!flags.statusz_out.empty()) {
    x3::StatuszReport statusz = server.Statusz();
    auto s = x3::WriteStringToFile(x3::Env::Default(), flags.statusz_out,
                                   statusz.ToJson() + "\n");
    if (!s.ok()) {
      std::fprintf(stderr, "statusz dump: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  if (!flags.query_log_out.empty()) {
    auto s = server.query_log().WriteJsonl(x3::Env::Default(),
                                           flags.query_log_out);
    if (!s.ok()) {
      std::fprintf(stderr, "query log dump: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // Reported numbers come from the metrics registry — the same wiring
  // the CI observability gate and a production scrape would read.
  x3::Histogram* latency = registry.GetHistogram(
      "x3_server_query_latency_seconds", "");
  uint64_t hits = registry.GetCounter("x3_server_cache_hits_total", "")->value();
  uint64_t rollups =
      registry.GetCounter("x3_server_rollup_answers_total", "")->value();
  uint64_t misses =
      registry.GetCounter("x3_server_cache_misses_total", "")->value();
  uint64_t served =
      registry.GetCounter("x3_server_cache_served_total", "")->value();
  uint64_t evictions =
      registry.GetCounter("x3_server_cache_evictions_total", "")->value();
  uint64_t queries = registry.GetCounter("x3_server_queries_total", "")->value();
  uint64_t slow = registry.GetCounter("x3_server_slow_queries_total", "")->value();
  uint64_t stuck = registry.GetCounter("x3_server_stuck_queries_total", "")->value();
  double served_total = static_cast<double>(served + misses);
  std::printf(
      "{\n"
      "  \"clients\": %zu, \"target_qps\": %.1f, \"queries\": %llu,\n"
      "  \"ok\": %llu, \"failed\": %llu,\n"
      "  \"wall_seconds\": %.3f, \"achieved_qps\": %.1f,\n"
      "  \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, \"mean_ms\": %.3f,\n"
      "  \"exact_hits\": %llu, \"rollup_answers\": %llu,\n"
      "  \"cache_misses\": %llu, \"cache_served\": %llu,\n"
      "  \"cache_hit_rate\": %.3f, \"evictions\": %llu,\n"
      "  \"slow_queries\": %llu, \"stuck_queries\": %llu,\n"
      "  \"cube_computations\": %llu, \"cube_result_cells\": %llu\n"
      "}\n",
      flags.clients, flags.qps,
      static_cast<unsigned long long>(queries),
      static_cast<unsigned long long>(ok_count.load()),
      static_cast<unsigned long long>(failed_count.load()), wall_seconds,
      static_cast<double>(queries) / wall_seconds,
      latency->Quantile(0.50) * 1e3,
      latency->Quantile(0.95) * 1e3,
      latency->Quantile(0.99) * 1e3,
      latency->count() > 0
          ? latency->sum() / static_cast<double>(latency->count()) * 1e3
          : 0,
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(rollups),
      static_cast<unsigned long long>(misses),
      static_cast<unsigned long long>(served),
      served_total > 0 ? static_cast<double>(served) / served_total : 0,
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(slow),
      static_cast<unsigned long long>(stuck),
      static_cast<unsigned long long>(computations->value() -
                                      computations_before),
      static_cast<unsigned long long>(result_cells->value() -
                                      result_cells_before));
  return failed_count.load() == 0 ? 0 : 2;
}
