// Plain-text input and JSON output helpers shared by the benchmark's two
// programs. The harness (run.py) generates every input; the programs only
// read it. Token formats, all whitespace-separated integers:
//
//   ARCH    num_array_dims d0 d1 d2 p0 p1 p2 l1_bytes l2_bytes noc dram
//           (p* are nn::Dim values 0..6 in N,K,C,Y',X',R,S order)
//   LAYER   kind batch out_ch in_ch out_h out_w kernel_h kernel_w stride
//           (kind is the nn::LayerKind value)
//   MAPPING dram.order[7] dram.tile[7] pe.order[7] pe.tile[7] pe_order[7]
//   NETSPEC "zoo" <name> | "ofa" image width_idx depths[4] expand_idx[18]
#pragma once

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>

#include "arch/accelerator.hpp"
#include "arch/resources.hpp"
#include "cost/cost_model.hpp"
#include "mapping/mapping.hpp"
#include "nn/layer.hpp"
#include "nn/model_zoo.hpp"
#include "nn/network.hpp"
#include "nn/ofa_space.hpp"

namespace perfbench {

using namespace naas;

inline long long next_int(std::istringstream& in) {
  long long v = 0;
  if (!(in >> v)) throw std::runtime_error("malformed input line");
  return v;
}

inline std::string next_word(std::istringstream& in) {
  std::string w;
  if (!(in >> w)) throw std::runtime_error("malformed input line");
  return w;
}

inline nn::Dim dim_of(long long v) {
  if (v < 0 || v >= nn::kNumDims) throw std::runtime_error("bad dim index");
  return static_cast<nn::Dim>(v);
}

inline arch::ArchConfig read_arch(std::istringstream& in) {
  arch::ArchConfig a;
  a.name = "bench";
  a.num_array_dims = static_cast<int>(next_int(in));
  for (auto& d : a.array_dims) d = static_cast<int>(next_int(in));
  for (auto& p : a.parallel_dims) p = dim_of(next_int(in));
  a.l1_bytes = next_int(in);
  a.l2_bytes = next_int(in);
  a.noc_bandwidth = static_cast<int>(next_int(in));
  a.dram_bandwidth = static_cast<int>(next_int(in));
  return a;
}

inline nn::Workload read_layer(std::istringstream& in) {
  nn::Workload l;
  l.name = "layer";
  l.kind = static_cast<nn::LayerKind>(next_int(in));
  l.batch = static_cast<int>(next_int(in));
  l.out_channels = static_cast<int>(next_int(in));
  l.in_channels = static_cast<int>(next_int(in));
  l.out_h = static_cast<int>(next_int(in));
  l.out_w = static_cast<int>(next_int(in));
  l.kernel_h = static_cast<int>(next_int(in));
  l.kernel_w = static_cast<int>(next_int(in));
  l.stride = static_cast<int>(next_int(in));
  return l;
}

inline void read_level(std::istringstream& in, mapping::LevelMapping& lvl) {
  for (auto& d : lvl.order) d = dim_of(next_int(in));
  for (auto& t : lvl.tile) t = static_cast<int>(next_int(in));
}

inline mapping::Mapping read_mapping(std::istringstream& in) {
  mapping::Mapping m;
  read_level(in, m.dram);
  read_level(in, m.pe);
  for (auto& d : m.pe_order) d = dim_of(next_int(in));
  return m;
}

inline nn::OfaConfig read_ofa(std::istringstream& in) {
  nn::OfaConfig c;
  c.image_size = static_cast<int>(next_int(in));
  c.width_idx = static_cast<int>(next_int(in));
  for (auto& d : c.depths) d = static_cast<int>(next_int(in));
  for (auto& e : c.expand_idx) e = static_cast<int>(next_int(in));
  return c;
}

inline nn::Network read_network(std::istringstream& in) {
  const std::string kind = next_word(in);
  if (kind == "zoo") return nn::make_network(next_word(in));
  if (kind == "ofa") return nn::OfaSpace().to_network(read_ofa(in));
  throw std::runtime_error("unknown network spec: " + kind);
}

inline arch::ResourceConstraint envelope_by_name(const std::string& name) {
  if (name == "edgetpu") return arch::edge_tpu_resources();
  if (name == "nvdla1024") return arch::nvdla_1024_resources();
  if (name == "nvdla256") return arch::nvdla_256_resources();
  if (name == "eyeriss") return arch::eyeriss_resources();
  if (name == "shidiannao") return arch::shidiannao_resources();
  throw std::runtime_error("unknown envelope: " + name);
}

// ------------------------------------------------------------ JSON output
// Doubles print with 17 significant digits so Python reads back the exact
// IEEE-754 value; non-finite values print as null.

inline std::string num(double v) {
  if (!(v == v) || v == 1.0 / 0.0 || v == -1.0 / 0.0) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

inline std::string arch_json(const arch::ArchConfig& a) {
  std::ostringstream os;
  os << "{\"num_array_dims\":" << a.num_array_dims << ",\"array_dims\":["
     << a.array_dims[0] << ',' << a.array_dims[1] << ',' << a.array_dims[2]
     << "],\"parallel_dims\":[" << static_cast<int>(a.parallel_dims[0]) << ','
     << static_cast<int>(a.parallel_dims[1]) << ','
     << static_cast<int>(a.parallel_dims[2]) << "],\"l1_bytes\":" << a.l1_bytes
     << ",\"l2_bytes\":" << a.l2_bytes << ",\"noc_bandwidth\":"
     << a.noc_bandwidth << ",\"dram_bandwidth\":" << a.dram_bandwidth << '}';
  return os.str();
}

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

inline std::string layer_json(const nn::Workload& l) {
  std::ostringstream os;
  os << "{\"name\":" << json_str(l.name) << ",\"fields\":[" << static_cast<int>(l.kind)
     << ',' << l.batch << ',' << l.out_channels << ',' << l.in_channels << ','
     << l.out_h << ',' << l.out_w << ',' << l.kernel_h << ',' << l.kernel_w
     << ',' << l.stride << "],\"dims\":[";
  for (int d = 0; d < nn::kNumDims; ++d)
    os << (d ? "," : "") << l.dim_size(static_cast<nn::Dim>(d));
  os << "]}";
  return os.str();
}

inline std::string report_json(const cost::CostReport& r) {
  return "{\"legal\":" + std::string(r.legal ? "true" : "false") +
         ",\"macs\":" + num(r.macs) + ",\"latency_cycles\":" +
         num(r.latency_cycles) + ",\"energy_nj\":" + num(r.energy_nj) +
         ",\"edp\":" + num(r.edp) + "}";
}

}  // namespace perfbench
