// perfbench_layers — the traced side of the benchmark.
//
// Times calls into each layer's public functions, from outside the program,
// on inputs taken from one workload: the workload's envelope and networks,
// the first outer generation its search draws from the seed, and its serve
// session. Prints one JSON object: {"metrics": {name: [value, unit]},
// "attempted": n, "correct": bool}. Built as its own target so that a
// reshaped inner API breaks only this program.
//
//   perfbench_layers <envelope> <seed> <threads> <serve_threads> <map_pop>
//                    <map_iters> <floor> <seconds> <workdir> <session_file>
//                    <NETSPEC>...
//
// floor > 0 selects the co-search: the cold-search counts then come from
// nas::run_cosearch. NETSPEC is "zoo <name>" (see inputs.hpp).

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "arch/presets.hpp"
#include "core/rng.hpp"
#include "core/thread_pool.hpp"
#include "fleet/hash_ring.hpp"
#include "fleet/router.hpp"
#include "inputs.hpp"
#include "mapping/legality.hpp"
#include "nas/nas_search.hpp"
#include "net/client.hpp"
#include "nn/accuracy_model.hpp"
#include "search/accelerator_search.hpp"
#include "search/cma_es.hpp"
#include "search/encoding.hpp"
#include "search/eval_cache.hpp"
#include "search/mapping_search.hpp"
#include "search/result_store.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Trace {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  long long attempted = 0;
  bool correct = true;
  std::string error;
  double micro_budget_s = 0.05;  ///< wall time per micro-benchmarked layer
  double sink = 0;               ///< keeps timed results observable

  void add(const std::string& name, double value, const char* unit) {
    metrics.push_back({name, {value, unit}});
  }
  void fail(const std::string& why) {
    if (correct) error = why;
    correct = false;
  }

  /// Median over five batches of the per-call time (ns) of fn(i), i
  /// cycling over [0, n). A batch is sized to fill a fifth of the budget.
  double per_call_ns(std::size_t n, const std::function<double(std::size_t)>& fn) {
    std::size_t calls = n;
    for (;;) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < calls; ++i) sink += fn(i % n);
      attempted += static_cast<long long>(calls);
      if (seconds_since(t0) > micro_budget_s / 10 || calls > (1u << 26)) break;
      calls *= 2;
    }
    std::vector<double> samples;
    for (int r = 0; r < 5; ++r) {
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < calls; ++i) sink += fn(i % n);
      samples.push_back(seconds_since(t0) * 1e9 / static_cast<double>(calls));
      attempted += static_cast<long long>(calls);
    }
    return median(samples);
  }

  /// Median wall time (s) of each call fn(i), i in [0, n).
  std::vector<double> each_call_s(std::size_t n,
                                  const std::function<void(std::size_t)>& fn) {
    std::vector<double> out;
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      fn(i);
      out.push_back(seconds_since(t0));
      ++attempted;
    }
    return out;
  }
};

struct Inputs {
  arch::ResourceConstraint rc;
  std::uint64_t seed = 1;
  int threads = 1;
  int serve_threads = 2;
  search::MappingSearchOptions mapping;
  double floor = 0;
  std::string workdir;
  std::vector<std::string> session;
  std::vector<nn::Network> nets;
  std::vector<arch::ArchConfig> generation;  ///< first outer generation
  std::vector<std::pair<arch::ArchConfig, nn::Workload>> pairs;
};

search::MappingSearchOptions layer_options(const search::MappingSearchOptions& m,
                                           const nn::Workload& layer) {
  search::MappingSearchOptions o = m;
  o.seed = m.seed ^ nn::LayerShapeHash{}(layer);
  return o;
}

// ------------------------------------------------------------ core/search

void trace_generation(Trace& t, const Inputs& in) {
  for (int threads : {1, in.threads}) {
    std::vector<double> secs;
    for (int rep = 0; rep < 3; ++rep) {
      core::ThreadPool pool(threads);
      const cost::CostModel model;
      search::ArchEvaluator ev(model, in.mapping, &pool);
      const auto t0 = Clock::now();
      const auto edps = ev.evaluate_population(in.generation, in.nets);
      secs.push_back(seconds_since(t0));
      ++t.attempted;
      if (rep == 0 && threads == in.threads) {
        // Warm-cache layers run against this evaluator.
        std::vector<double> assemble_ms;
        for (const auto& a : in.generation) {
          const auto t1 = Clock::now();
          const double g = ev.assembled_geomean(a, in.nets);
          assemble_ms.push_back(seconds_since(t1) * 1e3);
          ++t.attempted;
          const auto i = static_cast<std::size_t>(&a - in.generation.data());
          if (!(g == edps[i] || (g != g && edps[i] != edps[i])))
            t.fail("assembled_geomean differs from evaluate_population");
        }
        t.add("search.accelerator_search.warm_assemble_ms", median(assemble_ms),
              "ms");
      }
    }
    t.add(threads == 1 ? "core.task_graph.generation_1t_s"
                       : "core.task_graph.generation_nt_s",
          median(secs), "s");
  }
}

void trace_mapping_layers(Trace& t, const Inputs& in) {
  const cost::CostModel model;
  const std::size_t n = std::min<std::size_t>(in.pairs.size(), 64);
  std::vector<double> evals;
  const auto ms = t.each_call_s(n, [&](std::size_t i) {
    const auto& [a, l] = in.pairs[i];
    const auto r = search::search_mapping(model, a, l, layer_options(in.mapping, l));
    evals.push_back(static_cast<double>(r.evaluations));
  });
  t.add("search.mapping_search.ms", median(ms) * 1e3, "ms");
  t.add("search.mapping_search.evaluations", median(evals), "count");

  // Inner CMA-ES over the mapping genome, and decoded candidates for the
  // decode, legality and cost layers.
  const search::MapEncodingSpec spec = in.mapping.encoding;
  search::CmaEsOptions inner;
  inner.dim = spec.genome_size();
  inner.population = in.mapping.population;
  inner.seed = in.seed;
  search::CmaEs cma(inner);
  core::Rng rng(in.seed);
  t.add("search.cma_es.inner_step_us", t.per_call_ns(1, [&](std::size_t) {
    const auto pop = cma.ask();
    std::vector<double> fit;
    for (const auto& g : pop) fit.push_back(g[0] + rng.uniform());
    cma.tell(pop, fit);
    return fit[0];
  }) / 1e3, "us");

  search::CmaEs sampler(inner);
  std::vector<std::vector<double>> genomes;
  while (genomes.size() < 256)
    for (auto& g : sampler.ask()) genomes.push_back(std::move(g));
  const auto& pairs = in.pairs;
  const auto pair_of = [&](std::size_t i) -> const auto& {
    return pairs[i % pairs.size()];
  };
  std::vector<mapping::Mapping> mappings;
  for (std::size_t i = 0; i < genomes.size(); ++i)
    mappings.push_back(spec.decode(genomes[i], pair_of(i).first, pair_of(i).second));
  t.add("search.encoding.map_decode_ns",
        t.per_call_ns(genomes.size(), [&](std::size_t i) {
          return static_cast<double>(
              spec.decode(genomes[i], pair_of(i).first, pair_of(i).second)
                  .dram.tile[1]);
        }), "ns");
  t.add("mapping.legality.check_ns",
        t.per_call_ns(mappings.size(), [&](std::size_t i) {
          return mapping::check(mappings[i], pair_of(i).second, pair_of(i).first)
                         .legal
                     ? 1.0
                     : 0.0;
        }), "ns");
  t.add("cost.layer_context_us", t.per_call_ns(pairs.size(), [&](std::size_t i) {
    return static_cast<double>(
        model.make_context(pairs[i].first, pairs[i].second).par_extent[1]);
  }) / 1e3, "us");
  t.add("cost.evaluate_ns", t.per_call_ns(mappings.size(), [&](std::size_t i) {
    return model.evaluate(pair_of(i).first, pair_of(i).second, mappings[i]).edp;
  }), "ns");

  // One generation-sized batch per (arch, layer), as the inner search does.
  const std::size_t batch = static_cast<std::size_t>(in.mapping.population);
  std::vector<cost::LayerContext> contexts;
  std::vector<std::vector<mapping::Mapping>> batches;
  for (std::size_t p = 0; p < std::min<std::size_t>(pairs.size(), 64); ++p) {
    contexts.push_back(model.make_context(pairs[p].first, pairs[p].second));
    std::vector<mapping::Mapping> b;
    for (std::size_t k = 0; k < batch; ++k)
      b.push_back(spec.decode(genomes[(p * batch + k) % genomes.size()],
                              pairs[p].first, pairs[p].second));
    batches.push_back(std::move(b));
  }
  std::vector<cost::CostReport> reports(batch);
  t.add("cost.evaluate_batch_ns",
        t.per_call_ns(contexts.size(), [&](std::size_t i) {
          model.evaluate_batch(contexts[i], batches[i], reports);
          return reports[0].latency_cycles;
        }) / static_cast<double>(batch), "ns");
}

void trace_outer(Trace& t, const Inputs& in) {
  const search::HwEncodingSpec hw = search::make_hw_spec(
      in.rc, search::OrderEncoding::kImportance, true);
  search::CmaEsOptions outer;
  outer.dim = hw.genome_size();
  outer.population = 12;
  outer.seed = in.seed;
  search::CmaEs cma(outer);
  core::Rng rng(in.seed);
  const auto valid = [&hw](const std::vector<double>& g) { return hw.valid(g); };
  t.add("search.cma_es.outer_step_us", t.per_call_ns(1, [&](std::size_t) {
    const auto pop = cma.ask(valid);
    std::vector<double> fit;
    for (const auto& g : pop) fit.push_back(g[0] + rng.uniform());
    cma.tell(pop, fit);
    return fit[0];
  }) / 1e3, "us");
  search::CmaEs sampler(outer);
  std::vector<std::vector<double>> genomes;
  while (genomes.size() < 256)
    for (auto& g : sampler.ask(valid)) genomes.push_back(std::move(g));
  t.add("search.encoding.hw_decode_ns",
        t.per_call_ns(genomes.size(), [&](std::size_t i) {
          return static_cast<double>(hw.decode(genomes[i]).l1_bytes);
        }), "ns");
}

/// One cold search of the workload, which also writes the store the
/// cache and store layers are timed on.
void trace_cold_search(Trace& t, const Inputs& in, const std::string& store) {
  const cost::CostModel model;
  long long searches = 0, evaluations = 0;
  if (in.floor > 0) {
    nas::CoSearchOptions opts;
    opts.resources = in.rc;
    opts.hw_population = 8;
    opts.hw_iterations = 5;
    opts.seed = in.seed;
    opts.mapping = in.mapping;
    opts.subnet.min_accuracy = in.floor;
    opts.subnet.population = 8;
    opts.subnet.iterations = 4;
    opts.num_threads = in.threads;
    opts.cache_path = store;
    const auto r = nas::run_cosearch(model, opts);
    searches = r.mapping_searches;
    evaluations = r.cost_evaluations;
  } else {
    search::NaasOptions opts;
    opts.resources = in.rc;
    opts.population = 12;
    opts.iterations = 10;
    opts.seed = in.seed;
    opts.mapping = in.mapping;
    opts.num_threads = in.threads;
    opts.cache_path = store;
    const auto r = search::run_naas(model, opts, in.nets);
    searches = r.mapping_searches;
    evaluations = r.cost_evaluations;
  }
  ++t.attempted;
  t.add("search.accelerator_search.mapping_searches",
        static_cast<double>(searches), "count");
  t.add("search.accelerator_search.cost_evaluations",
        static_cast<double>(evaluations), "count");
}

void trace_cache_and_store(Trace& t, const Inputs& in,
                           const std::string& cold_store) {
  const search::StoreEntries entries = search::ResultStore::load(cold_store).entries;
  search::EvalCache cache;
  cache.preload(entries);
  std::vector<std::uint64_t> keys;
  for (const auto& e : entries) keys.push_back(e.first);
  if (keys.empty()) {
    t.fail("the cold search left an empty store");
    return;
  }
  t.add("search.eval_cache.find_ns", t.per_call_ns(keys.size(), [&](std::size_t i) {
    return cache.find(keys[i]) ? 1.0 : 0.0;
  }), "ns");

  const std::string path = in.workdir + "/layers.store";
  const std::string append_path = in.workdir + "/layers-append.store";
  const auto save_ms = t.each_call_s(5, [&](std::size_t) {
    if (search::ResultStore::save(path, entries) != search::StoreStatus::kOk)
      t.fail("ResultStore::save failed");
  });
  const auto load_ms = t.each_call_s(5, [&](std::size_t) {
    const auto r = search::ResultStore::load(path);
    if (r.status != search::StoreStatus::kOk || r.entries.size() != entries.size())
      t.fail("ResultStore::load did not return every saved entry");
  });
  t.add("search.result_store.save_ms", median(save_ms) * 1e3, "ms");
  t.add("search.result_store.load_ms", median(load_ms) * 1e3, "ms");
  t.add("search.result_store.mb",
        static_cast<double>(std::filesystem::file_size(path)) / 1e6, "MB");
  // The serve path appends each batch's few new entries as one segment.
  std::filesystem::copy_file(path, append_path,
                             std::filesystem::copy_options::overwrite_existing);
  const auto append_s = t.each_call_s(std::min<std::size_t>(entries.size(), 64),
                                      [&](std::size_t i) {
    if (search::ResultStore::append(append_path, {entries[i]}) !=
        search::StoreStatus::kOk)
      t.fail("ResultStore::append failed");
  });
  t.add("search.result_store.append_ms", median(append_s) * 1e3, "ms");
}

// -------------------------------------------------------------- nas and nn

void trace_nas(Trace& t, const Inputs& in) {
  const double floor = in.floor > 0 ? in.floor : nn::AccuracyPredictor::kResNet50Top1;
  const arch::ArchConfig a = arch::baseline_for(in.rc);
  const nn::OfaSpace space;
  const nn::AccuracyPredictor predictor;
  nas::SubnetEvolutionOptions opts;
  opts.min_accuracy = floor;
  opts.population = 8;
  opts.iterations = 4;
  opts.seed = in.seed;
  std::vector<double> secs, searches;
  for (int rep = 0; rep < 3; ++rep) {
    core::ThreadPool pool(in.threads);
    const cost::CostModel model;
    search::ArchEvaluator ev(model, in.mapping, &pool);
    const auto t0 = Clock::now();
    const auto r = nas::evolve_subnet(ev, a, space, predictor, opts);
    secs.push_back(seconds_since(t0));
    searches.push_back(static_cast<double>(ev.mapping_searches()));
    ++t.attempted;
    if (!(r.accuracy >= floor)) t.fail("evolve_subnet result below its floor");
  }
  t.add("nas.evolve_subnet_s", median(secs), "s");
  t.add("nas.evolve_subnet.mapping_searches", median(searches), "count");

  core::Rng rng(in.seed);
  std::vector<nn::OfaConfig> configs;
  for (int i = 0; i < 64; ++i) configs.push_back(space.sample(rng));
  t.add("nn.ofa_space.to_network_us", t.per_call_ns(configs.size(), [&](std::size_t i) {
    return static_cast<double>(space.to_network(configs[i]).num_layers());
  }) / 1e3, "us");
  t.add("nn.accuracy_model.predict_ns",
        t.per_call_ns(configs.size(), [&](std::size_t i) {
          return predictor.predict(configs[i]);
        }), "ns");
}

// ----------------------------------------------------- serve, net and fleet

/// A serve::Server on an ephemeral port, run on its own thread.
class ServerThread {
 public:
  ServerThread(serve::LineHandler& handler) : server_(handler, {}) {
    std::string err;
    if (!server_.start(&err)) throw std::runtime_error("server start: " + err);
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ServerThread() {
    server_.request_stop();
    thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;
  int port() const { return server_.port(); }

 private:
  serve::Server server_;
  std::thread thread_;
};

serve::ServeOptions serve_options(int threads) {
  serve::ServeOptions o;
  o.mapping.population = 10;  // naas_serve's default budget
  o.mapping.iterations = 6;
  o.num_threads = threads;
  return o;
}

void trace_serve(Trace& t, const Inputs& in) {
  const auto& lines = in.session;
  serve::EvalService service(serve_options(in.serve_threads));
  std::vector<std::string> cold(lines.size());
  const auto cold_s = t.each_call_s(lines.size(), [&](std::size_t i) {
    cold[i] = service.handle_lines({lines[i]})[0];
  });
  t.add("serve.service.cold_request_ms", median(cold_s) * 1e3, "ms");
  std::vector<double> warm_s;
  for (int pass = 0; pass < 3; ++pass) {
    const auto s = t.each_call_s(lines.size(), [&](std::size_t i) {
      if (service.handle_lines({lines[i]})[0] != cold[i])
        t.fail("warm service answer differs from cold");
    });
    warm_s.insert(warm_s.end(), s.begin(), s.end());
  }
  t.add("serve.service.warm_request_us", median(warm_s) * 1e6, "us");

  std::vector<serve::Json> parsed;
  for (const auto& r : cold) {
    std::string err;
    parsed.push_back(serve::Json::parse(r, &err));
  }
  t.add("serve.json.parse_us", t.per_call_ns(lines.size(), [&](std::size_t i) {
    std::string err;
    return static_cast<double>(serve::Json::parse(lines[i], &err).size());
  }) / 1e3, "us");
  t.add("serve.json.dump_us", t.per_call_ns(parsed.size(), [&](std::size_t i) {
    return static_cast<double>(parsed[i].dump().size());
  }) / 1e3, "us");

  ServerThread server(service);
  net::LineClient client;
  std::string err;
  if (!client.connect("127.0.0.1", server.port(), 5000, &err))
    throw std::runtime_error("connect: " + err);
  const std::string ping = "{\"id\":0,\"method\":\"ping\"}";
  std::string reply;
  const auto rtt = t.each_call_s(2000, [&](std::size_t) {
    if (!client.send_line(ping) || !client.read_line(&reply, 5000))
      t.fail("ping failed");
  });
  t.add("net.client.ping_rtt_us", median(rtt) * 1e6, "us");
  client.close();
}

void trace_fleet(Trace& t, const Inputs& in) {
  t.add("fleet.hash_ring.owner_ns", [&] {
    const fleet::HashRing ring(2, 64);
    core::Rng rng(in.seed);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 1024; ++i) keys.push_back((std::uint64_t{rng()} << 32) | rng());
    return t.per_call_ns(keys.size(), [&](std::size_t i) {
      return static_cast<double>(ring.owner(keys[i]));
    });
  }(), "ns");

  const int per_worker = std::max(1, in.serve_threads / 2);
  serve::EvalService w0(serve_options(per_worker));
  serve::EvalService w1(serve_options(per_worker));
  ServerThread s0(w0), s1(w1);
  fleet::RouterOptions ro;
  ro.workers = {{"127.0.0.1", s0.port()}, {"127.0.0.1", s1.port()}};
  fleet::Router router(ro);
  const auto& lines = in.session;
  std::vector<std::string> cold(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    cold[i] = router.handle_lines({lines[i]})[0];
  t.attempted += static_cast<long long>(lines.size());
  std::vector<double> warm_s;
  for (int pass = 0; pass < 3; ++pass) {
    const auto s = t.each_call_s(lines.size(), [&](std::size_t i) {
      if (router.handle_lines({lines[i]})[0] != cold[i])
        t.fail("warm router answer differs from cold");
    });
    warm_s.insert(warm_s.end(), s.begin(), s.end());
  }
  t.add("fleet.router.warm_request_us", median(warm_s) * 1e6, "us");
}

Inputs read_inputs(int argc, char** argv) {
  if (argc < 13) throw std::runtime_error("too few arguments");
  Inputs in;
  in.rc = envelope_by_name(argv[1]);
  in.seed = std::strtoull(argv[2], nullptr, 10);
  in.threads = std::atoi(argv[3]);
  in.serve_threads = std::atoi(argv[4]);
  in.mapping.population = std::atoi(argv[5]);
  in.mapping.iterations = std::atoi(argv[6]);
  in.floor = std::atof(argv[7]);
  in.workdir = argv[9];
  std::ifstream session(argv[10]);
  for (std::string line; std::getline(session, line);)
    if (!line.empty()) in.session.push_back(line);
  std::string specs;
  for (int i = 11; i < argc; ++i) specs += std::string(argv[i]) + " ";
  std::istringstream ss(specs);
  while (ss >> std::ws, !ss.eof()) in.nets.push_back(read_network(ss));
  if (in.session.empty() || in.nets.empty())
    throw std::runtime_error("empty session or network list");

  const search::HwEncodingSpec hw = search::make_hw_spec(
      in.rc, search::OrderEncoding::kImportance, true);
  search::CmaEsOptions outer;
  outer.dim = hw.genome_size();
  outer.population = 12;
  outer.seed = in.seed;
  search::CmaEs cma(outer);
  for (const auto& g : cma.ask([&hw](const std::vector<double>& x) {
         return hw.valid(x);
       })) {
    const auto a = hw.decode(g);
    if (in.rc.allows(a)) in.generation.push_back(a);
  }
  if (in.generation.empty()) throw std::runtime_error("empty generation");
  for (const auto& a : in.generation)
    for (const auto& net : in.nets)
      for (const auto& [layer, count] : net.unique_layers())
        in.pairs.push_back({a, layer});
  return in;
}

}  // namespace

int main(int argc, char** argv) {
  Trace t;
  try {
    const Inputs in = read_inputs(argc, argv);
    // Micro-benchmarked layers share a fifth of the run's seconds.
    t.micro_budget_s = std::max(0.01, std::atof(argv[8]) / 5 / 15);
    const std::string cold_store = in.workdir + "/cold.store";
    trace_generation(t, in);
    trace_mapping_layers(t, in);
    trace_outer(t, in);
    trace_cold_search(t, in, cold_store);
    trace_cache_and_store(t, in, cold_store);
    trace_nas(t, in);
    trace_serve(t, in);
    trace_fleet(t, in);
  } catch (const std::exception& e) {
    t.fail(e.what());
  }
  std::string out = "{\"metrics\":{";
  for (std::size_t i = 0; i < t.metrics.size(); ++i)
    out += (i ? "," : "") + json_str(t.metrics[i].first) + ":[" +
           num(t.metrics[i].second.first) + "," +
           json_str(t.metrics[i].second.second) + "]";
  out += "},\"attempted\":" + std::to_string(t.attempted) +
         ",\"correct\":" + (t.correct ? "true" : "false") +
         ",\"error\":" + json_str(t.error) + ",\"sink\":" + num(t.sink) + "}";
  std::printf("%s\n", out.c_str());
  if (!t.correct) std::fprintf(stderr, "perfbench_layers: %s\n", t.error.c_str());
  return t.correct ? 0 : 1;
}
