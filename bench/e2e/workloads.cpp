#include "workloads.h"

#include "gen_tu.h"

namespace purec::e2e {

namespace {

struct SeededArg {
  int lo;
  int hi;
  bool odd = false;  // force an odd value (a stride coprime to 2^k)
};

/// One program row: fixed sizes at both scales, then seeded values drawn
/// per program so a new program never shifts another one's inputs.
struct Row {
  const char* name;
  const char* file;
  std::vector<std::string> flags;
  std::vector<long> full;
  std::vector<long> smoke;
  std::vector<SeededArg> seeded;
};

ProgramSpec instantiate(const Row& row, std::uint64_t seed, Scale scale) {
  ProgramSpec p;
  p.name = row.name;
  p.source_file = row.file;
  p.purecc_flags = row.flags;
  for (const long v : scale == Scale::Full ? row.full : row.smoke) {
    p.args.push_back(std::to_string(v));
  }
  SeedRng rng(derive_seed(seed, row.name));
  for (const SeededArg& arg : row.seeded) {
    int v = rng.range(arg.lo, arg.hi);
    if (arg.odd) v |= 1;
    p.args.push_back(std::to_string(v));
  }
  return p;
}

std::vector<Row> rows_for(std::string_view workload) {
  if (workload == "classic_kernels") {
    // The paper's four applications (Listing 7 / Figs. 3-11) on the
    // default pluto path: reschedule, tile 32, parallel outer loop.
    return {
        {"matmul", "matmul.c", {}, {320}, {48}, {{0, 10}, {0, 12}}},
        {"heat", "heat.c", {}, {1024, 20}, {64, 2}, {{0, 18}}},
        {"satellite", "satellite.c", {}, {16, 262144, 4}, {4, 4096, 1},
         {{0, 12}}},
        {"ell", "ell.c", {}, {200000, 16, 10}, {2000, 4, 1},
         {{0, 8}, {0, 999}}},
    };
  }
  if (workload == "region_kernels") {
    // Region scheduling decisions: fission, fusion, privatization,
    // guards, guided-by-default, and reduction clauses.
    return {
        {"fission_split", "fission_split.c", {}, {1000000, 10}, {4096, 1},
         {{0, 22}}},
        {"fused_siblings", "fused_siblings.c", {}, {1000000, 15},
         {4096, 1}, {{0, 30}}},
        {"private_tmp", "private_tmp.c", {}, {2000, 512, 30}, {64, 32, 1},
         {{0, 18}}},
        {"guarded_update", "guarded_update.c", {}, {1000000, 250000, 10},
         {4096, 1024, 1}, {{0, 16}}},
        {"triangular_guided", "triangular_guided.c", {}, {1500, 5},
         {64, 1}, {{0, 16}}},
        {"guarded_reduce", "guarded_reduce.c", {}, {1500, 16, 10},
         {64, 8, 1}, {{0, 16}}},
        {"dot_reduce", "dot_reduce.c", {"--infer-pure", "--fp-reductions"},
         {4000000, 3}, {4096, 1}, {{0, 12}}},
    };
  }
  if (workload == "memo_hot") {
    // 1024 distinct keys: after the first touch every call is a table hit.
    return {
        {"tabulate_memo", "tabulate.c", {"--memoize"}, {1000000, 1024},
         {4096, 1024}, {{3, 1023, true}, {0, 1023}}},
        {"tabulate_memo_verify", "tabulate.c", {"--memoize=verify"},
         {1000000, 1024}, {4096, 1024}, {{3, 1023, true}, {0, 1023}}},
    };
  }
  if (workload == "memo_cold") {
    // An odd stride over 2^24 keys: every call is a distinct key, so the
    // table misses, inserts, and evicts on nearly every call.
    return {
        {"tabulate_memo_cold", "tabulate.c", {"--memoize"},
         {500000, 16777216}, {4096, 1048576},
         {{1024, 1048575, true}, {0, 16777215}}},
    };
  }
  if (workload == "compile_tu") {
    return {
        {"generated_tu", "", {"--infer-pure"}, {131072, 384, 2},
         {512, 32, 1}, {}},
    };
  }
  return {};
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "classic_kernels", "region_kernels", "memo_hot", "memo_cold",
      "compile_tu"};
  return names;
}

std::optional<WorkloadSpec> make_workload(std::string_view name,
                                          std::uint64_t seed, Scale scale) {
  const std::vector<Row> rows = rows_for(name);
  if (rows.empty()) return std::nullopt;
  WorkloadSpec spec;
  spec.name = name;
  for (const Row& row : rows) {
    spec.programs.push_back(instantiate(row, seed, scale));
  }
  if (name == "compile_tu") spec.tu_kernels = scale == Scale::Full ? 36 : 12;
  return spec;
}

}  // namespace purec::e2e
