// perfbench_e2e — the end-to-end side of the benchmark.
//
// Runs one search or co-search through the library's top-level entry points
// (search::run_naas, nas::run_cosearch) with the budgets naas_cli uses, and
// re-derives results through independent library paths for the harness's
// correctness checks. It only links stable surfaces: the search entry
// points, ArchEvaluator, CostModel, mapping legality and the zoo.
//
//   perfbench_e2e ready <envelope>
//   perfbench_e2e zoo <envelope> <net>...
//   perfbench_e2e search <net> <envelope> <seed> <threads> <store|-> <ro>
//   perfbench_e2e cosearch <envelope> <floor> <seed> <threads> <store|-> <ro>
//   perfbench_e2e verify <threads>      (cases on stdin, one JSON line each)
//
// Verify cases (token formats in inputs.hpp):
//   net <map_pop> <map_iters> ARCH NETSPEC   fresh-evaluator network cost,
//                                            with every layer's mapping
//                                            legality-checked and re-scored
//   subnet <map_pop> <map_iters> <floor> ARCH   one subnet evolution
//   acc OFA                                  predicted top-1
//   map ARCH LAYER MAPPING                   legality, cost of the mapping
//                                            and of the 3 canonical ones
//   canon ARCH NETSPEC                       network EDP, canonical mappings

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "core/thread_pool.hpp"
#include "cost/network_cost.hpp"
#include "inputs.hpp"
#include "mapping/canonical.hpp"
#include "mapping/legality.hpp"
#include "nas/nas_search.hpp"
#include "nn/accuracy_model.hpp"
#include "search/accelerator_search.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

// naas_cli's default budgets (examples/naas_cli.cpp).
constexpr int kSearchPopulation = 12;
constexpr int kSearchIterations = 10;
constexpr int kSearchMapPopulation = 10;
constexpr int kSearchMapIterations = 6;
constexpr int kCoHwPopulation = 8;
constexpr int kCoHwIterations = 5;
constexpr int kCoMapPopulation = 8;
constexpr int kCoMapIterations = 5;
constexpr int kSubnetPopulation = 8;
constexpr int kSubnetIterations = 4;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

search::MappingSearchOptions mapping_budget(int population, int iterations) {
  search::MappingSearchOptions m;
  m.population = population;
  m.iterations = iterations;
  return m;
}

nas::SubnetEvolutionOptions subnet_budget(double floor) {
  nas::SubnetEvolutionOptions s;
  s.min_accuracy = floor;
  s.population = kSubnetPopulation;
  s.iterations = kSubnetIterations;
  return s;
}

std::string network_json(const cost::NetworkCost& nc) {
  std::ostringstream os;
  os << "{\"legal\":" << (nc.legal ? "true" : "false")
     << ",\"latency_cycles\":" << num(nc.latency_cycles)
     << ",\"energy_nj\":" << num(nc.energy_nj) << ",\"edp\":" << num(nc.edp)
     << ",\"layers\":[";
  for (std::size_t i = 0; i < nc.per_layer.size(); ++i) {
    const auto& lc = nc.per_layer[i];
    os << (i ? "," : "") << "{\"count\":" << lc.count
       << ",\"layer\":" << layer_json(lc.layer)
       << ",\"report\":" << report_json(lc.report) << '}';
  }
  os << "]}";
  return os.str();
}

std::string ofa_json(const nn::OfaConfig& c) {
  std::ostringstream os;
  os << '[' << c.image_size << ',' << c.width_idx;
  for (int d : c.depths) os << ',' << d;
  for (int e : c.expand_idx) os << ',' << e;
  os << ']';
  return os.str();
}

int cmd_ready(const std::string& envelope) {
  const cost::CostModel model;
  const auto rc = envelope_by_name(envelope);
  const auto baseline = arch::baseline_for(rc);
  std::printf("{\"ready\":%s}\n", rc.allows(baseline) ? "true" : "false");
  return 0;
}

int cmd_zoo(const std::string& envelope, const std::vector<std::string>& nets) {
  const auto rc = envelope_by_name(envelope);
  std::ostringstream os;
  os << "{\"envelope\":{\"max_pes\":" << rc.max_pes
     << ",\"max_onchip_bytes\":" << rc.max_onchip_bytes
     << ",\"max_noc_bandwidth\":" << rc.max_noc_bandwidth
     << ",\"dram_bandwidth\":" << rc.dram_bandwidth
     << "},\"baseline\":" << arch_json(arch::baseline_for(rc))
     << ",\"networks\":{";
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const nn::Network net = nn::make_network(nets[n]);
    os << (n ? "," : "") << json_str(nets[n]) << ":[";
    const auto unique = net.unique_layers();
    for (std::size_t u = 0; u < unique.size(); ++u) {
      int first = 0;
      while (!nn::LayerShapeEq{}(net.layers()[static_cast<std::size_t>(first)],
                                 unique[u].first))
        ++first;
      os << (u ? "," : "") << "{\"index\":" << first
         << ",\"count\":" << unique[u].second
         << ",\"layer\":" << layer_json(unique[u].first) << '}';
    }
    os << ']';
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

int cmd_search(const std::string& net_name, const std::string& envelope,
               std::uint64_t seed, int threads, const std::string& store,
               bool readonly) {
  const cost::CostModel model;
  const nn::Network net = nn::make_network(net_name);
  search::NaasOptions opts;
  opts.resources = envelope_by_name(envelope);
  opts.population = kSearchPopulation;
  opts.iterations = kSearchIterations;
  opts.seed = seed;
  opts.mapping = mapping_budget(kSearchMapPopulation, kSearchMapIterations);
  opts.num_threads = threads;
  if (store != "-") opts.cache_path = store;
  opts.cache_readonly = readonly;
  const auto t0 = Clock::now();
  const auto res = search::run_naas(model, opts, {net});
  const double secs = seconds_since(t0);
  std::printf("{\"seconds\":%s,\"edp\":%s,\"arch\":%s,\"network\":%s}\n",
              num(secs).c_str(), num(res.best_geomean_edp).c_str(),
              arch_json(res.best_arch).c_str(),
              network_json(res.best_networks.at(0)).c_str());
  return 0;
}

int cmd_cosearch(const std::string& envelope, double floor,
                 std::uint64_t seed, int threads, const std::string& store,
                 bool readonly) {
  const cost::CostModel model;
  nas::CoSearchOptions opts;
  opts.resources = envelope_by_name(envelope);
  opts.hw_population = kCoHwPopulation;
  opts.hw_iterations = kCoHwIterations;
  opts.seed = seed;
  opts.mapping = mapping_budget(kCoMapPopulation, kCoMapIterations);
  opts.subnet = subnet_budget(floor);
  opts.num_threads = threads;
  if (store != "-") opts.cache_path = store;
  opts.cache_readonly = readonly;
  const auto t0 = Clock::now();
  const auto res = nas::run_cosearch(model, opts);
  const double secs = seconds_since(t0);
  std::printf(
      "{\"seconds\":%s,\"edp\":%s,\"accuracy\":%s,\"arch\":%s,\"ofa\":%s}\n",
      num(secs).c_str(), num(res.best_edp).c_str(),
      num(res.best_accuracy).c_str(), arch_json(res.best_arch).c_str(),
      ofa_json(res.best_net).c_str());
  return 0;
}

std::string verify_net(std::istringstream& in, const cost::CostModel& model,
                       core::ThreadPool& pool) {
  const int pop = static_cast<int>(next_int(in));
  const int iters = static_cast<int>(next_int(in));
  const arch::ArchConfig a = read_arch(in);
  const nn::Network net = read_network(in);
  search::ArchEvaluator ev(model, mapping_budget(pop, iters), &pool);
  const cost::NetworkCost nc = ev.evaluate(a, net);
  std::ostringstream os;
  os << "{\"network\":" << network_json(nc) << ",\"mappings\":[";
  for (std::size_t i = 0; i < nc.per_layer.size(); ++i) {
    const nn::Workload& layer = nc.per_layer[i].layer;
    const mapping::Mapping& m = ev.best_mapping(a, layer).best;
    const auto legality = mapping::check(m, layer, a);
    os << (i ? "," : "") << "{\"legal\":" << (legality.legal ? "true" : "false")
       << ",\"reason\":" << json_str(legality.reason)
       << ",\"rescored\":" << report_json(model.evaluate(a, layer, m)) << '}';
  }
  os << "]}";
  return os.str();
}

std::string verify_case(const std::string& line, const cost::CostModel& model,
                        core::ThreadPool& pool) {
  std::istringstream in(line);
  const std::string kind = next_word(in);
  if (kind == "net") return verify_net(in, model, pool);
  if (kind == "subnet") {
    const int pop = static_cast<int>(next_int(in));
    const int iters = static_cast<int>(next_int(in));
    double floor = 0;
    if (!(in >> floor)) throw std::runtime_error("malformed subnet case");
    const arch::ArchConfig a = read_arch(in);
    search::ArchEvaluator ev(model, mapping_budget(pop, iters), &pool);
    const auto sr = nas::evolve_subnet(ev, a, nn::OfaSpace(),
                                       nn::AccuracyPredictor(),
                                       subnet_budget(floor));
    return "{\"edp\":" + num(sr.edp) + ",\"accuracy\":" + num(sr.accuracy) +
           "}";
  }
  if (kind == "acc")
    return "{\"top1\":" + num(nn::AccuracyPredictor().predict(read_ofa(in))) +
           "}";
  if (kind == "map") {
    const arch::ArchConfig a = read_arch(in);
    const nn::Workload layer = read_layer(in);
    const mapping::Mapping m = read_mapping(in);
    const auto legality = mapping::check(m, layer, a);
    std::string out = "{\"legal\":" +
                      std::string(legality.legal ? "true" : "false") +
                      ",\"reason\":" + json_str(legality.reason) +
                      ",\"report\":" + report_json(model.evaluate(a, layer, m)) +
                      ",\"canonical_edp\":[";
    int k = 0;
    for (arch::Dataflow df : {arch::Dataflow::kWeightStationary,
                              arch::Dataflow::kOutputStationary,
                              arch::Dataflow::kRowStationary}) {
      const auto rep =
          model.evaluate(a, layer, mapping::canonical_mapping(a, layer, df));
      out += (k++ ? "," : "") + num(rep.edp);
    }
    return out + "]}";
  }
  if (kind == "canon") {
    const arch::ArchConfig a = read_arch(in);
    const nn::Network net = read_network(in);
    return "{\"edp\":" +
           num(cost::evaluate_network_canonical(model, a, net).edp) + "}";
  }
  throw std::runtime_error("unknown verify case: " + kind);
}

int cmd_verify(int threads) {
  const cost::CostModel model;
  core::ThreadPool pool(threads);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    std::string out;
    try {
      out = verify_case(line, model, pool);
    } catch (const std::exception& e) {
      out = "{\"error\":" + json_str(e.what()) + "}";
    }
    std::printf("%s\n", out.c_str());
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_e2e ready <envelope>\n"
               "       perfbench_e2e zoo <envelope> <net>...\n"
               "       perfbench_e2e search <net> <envelope> <seed> "
               "<threads> <store|-> <readonly 0|1>\n"
               "       perfbench_e2e cosearch <envelope> <floor> <seed> "
               "<threads> <store|-> <readonly 0|1>\n"
               "       perfbench_e2e verify <threads>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> a(argv + 1, argv + argc);
  try {
    if (a.size() == 2 && a[0] == "ready") return cmd_ready(a[1]);
    if (a.size() >= 3 && a[0] == "zoo")
      return cmd_zoo(a[1], std::vector<std::string>(a.begin() + 2, a.end()));
    if (a.size() == 7 && a[0] == "search")
      return cmd_search(a[1], a[2], std::strtoull(a[3].c_str(), nullptr, 10),
                        std::atoi(a[4].c_str()), a[5], a[6] == "1");
    if (a.size() == 7 && a[0] == "cosearch")
      return cmd_cosearch(a[1], std::atof(a[2].c_str()),
                          std::strtoull(a[3].c_str(), nullptr, 10),
                          std::atoi(a[4].c_str()), a[5], a[6] == "1");
    if (a.size() == 2 && a[0] == "verify")
      return cmd_verify(std::atoi(a[1].c_str()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
  return usage();
}
