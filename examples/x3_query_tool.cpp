// x3_query_tool: run an X^3 cube query against XML files from the
// command line — the library as a downstream user would drive it.
//
//   x3_query_tool --xml=warehouse.xml [--xml=more.xml ...]
//                 (--query='for $b in ...' | --query-file=q.x3)
//                 [--algorithm=BUC] [--min-count=N] [--out=cube.csv]
//
// Prints the lattice, execution stats, and (without --out) the cube as
// CSV on stdout.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cube/algorithm.h"
#include "cube/cube_spec.h"
#include "pattern/pattern_parser.h"
#include "schema/dtd_parser.h"
#include "schema/summarizability.h"
#include "util/string_util.h"
#include "x3/engine.h"
#include "xdb/database.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --xml=FILE [--xml=FILE ...] --query=QUERY|--query-file=F\n"
      "          [--algorithm=%s|COUNTER|TD|TDOPT|TDOPTALL|TDCUST|BUCOPT|"
      "BUCCUST|REFERENCE]\n"
      "          [--min-count=N] [--out=FILE.csv]\n"
      "          [--dtd=FILE --explain]   (print the TDCUST plan the\n"
      "           schema-inferred summarizability permits, then exit)\n",
      argv0, "BUC");
  return 2;
}

bool GetFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

std::string ReadFileOrDie(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string buf(static_cast<size_t>(size > 0 ? size : 0), '\0');
  if (!buf.empty() && std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
    std::fprintf(stderr, "short read of %s\n", path.c_str());
    std::exit(1);
  }
  std::fclose(f);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> xml_files;
  std::string query_text;
  std::string algorithm_name = "BUC";
  std::string out_path;
  std::string dtd_path;
  bool explain = false;
  long min_count = 0;

  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (GetFlag(argv[i], "--xml", &value)) {
      xml_files.push_back(value);
    } else if (GetFlag(argv[i], "--query", &value)) {
      query_text = value;
    } else if (GetFlag(argv[i], "--query-file", &value)) {
      query_text = ReadFileOrDie(value);
    } else if (GetFlag(argv[i], "--algorithm", &value)) {
      algorithm_name = value;
    } else if (GetFlag(argv[i], "--out", &value)) {
      out_path = value;
    } else if (GetFlag(argv[i], "--dtd", &value)) {
      dtd_path = value;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      explain = true;
    } else if (GetFlag(argv[i], "--min-count", &value)) {
      min_count = std::atol(value.c_str());
    } else {
      return Usage(argv[0]);
    }
  }
  if (query_text.empty()) return Usage(argv[0]);
  if (xml_files.empty() && !explain) return Usage(argv[0]);

  if (explain) {
    // Static planning: parse + bind, build the lattice, infer
    // properties from the DTD (if given) and print the TDCUST plan.
    auto db_for_compile = x3::Database::Open({});
    if (!db_for_compile.ok()) return 1;
    x3::X3Engine engine(db_for_compile->get());
    auto query = engine.Compile(query_text);
    if (!query.ok()) {
      std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
      return 1;
    }
    auto lattice = x3::BuildCubeLattice(*query);
    if (!lattice.ok()) {
      std::fprintf(stderr, "%s\n", lattice.status().ToString().c_str());
      return 1;
    }
    x3::LatticeProperties properties =
        x3::LatticeProperties::AssumeNothing(*lattice);
    if (!dtd_path.empty()) {
      auto schema = x3::ParseDtdFile(dtd_path);
      if (!schema.ok()) {
        std::fprintf(stderr, "%s\n", schema.status().ToString().c_str());
        return 1;
      }
      auto parsed_fact = x3::ParsePattern(query->fact_path);
      if (!parsed_fact.ok()) return 1;
      const std::string& fact_tag =
          parsed_fact->pattern.node(parsed_fact->output_node()).tag;
      auto inferred =
          x3::InferLatticeProperties(*schema, *lattice, fact_tag);
      if (!inferred.ok()) {
        std::fprintf(stderr, "%s\n", inferred.status().ToString().c_str());
        return 1;
      }
      properties = std::move(*inferred);
    }
    x3::CubePlan plan =
        x3::BuildCubePlan(x3::CubeAlgorithm::kTDCust, *lattice, properties);
    std::fputs(x3::ExplainCubePlan(plan, *lattice).c_str(), stdout);
    return 0;
  }

  auto algorithm = x3::ParseCubeAlgorithm(algorithm_name);
  if (!algorithm.ok()) {
    std::fprintf(stderr, "%s\n", algorithm.status().ToString().c_str());
    return 2;
  }

  auto db = x3::Database::Open({});
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  for (const std::string& file : xml_files) {
    auto root = (*db)->LoadXmlFile(file);
    if (!root.ok()) {
      std::fprintf(stderr, "loading %s: %s\n", file.c_str(),
                   root.status().ToString().c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "loaded %zu document(s), %u nodes\n",
               xml_files.size(), (*db)->node_count());

  x3::X3Engine engine(db->get());
  x3::CubeComputeOptions options;
  options.min_count = min_count;
  auto result = engine.Execute(query_text, *algorithm, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  std::fprintf(stderr,
               "facts=%zu cuboids=%llu cells=%llu | materialize %.1f ms, "
               "cube %.1f ms (%s)\n",
               result->facts.size(),
               static_cast<unsigned long long>(result->lattice.num_cuboids()),
               static_cast<unsigned long long>(result->cube.TotalCells()),
               result->materialize_seconds * 1e3, result->cube_seconds * 1e3,
               x3::CubeAlgorithmToString(*algorithm));

  std::string csv_path =
      out_path.empty()
          ? x3::StringPrintf("/tmp/x3-query-%d.csv", static_cast<int>(getpid()))
          : out_path;
  if (auto s = result->cube.WriteCsv(csv_path, result->lattice,
                                     result->facts);
      !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  if (out_path.empty()) {
    std::string csv = ReadFileOrDie(csv_path);
    std::fwrite(csv.data(), 1, csv.size(), stdout);
    std::remove(csv_path.c_str());
  } else {
    std::fprintf(stderr, "cube written to %s\n", out_path.c_str());
  }
  return 0;
}
