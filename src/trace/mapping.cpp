#include "trace/mapping.hpp"

#include <stdexcept>

#include "common/math_util.hpp"

namespace llamcat {

NameTable<TbOrder> enum_names(TbOrder) {
  static constexpr EnumName<TbOrder> kNames[] = {
      {TbOrder::kHLG, "HLG"}, {TbOrder::kHGL, "HGL"}, {TbOrder::kLHG, "LHG"}};
  return kNames;
}

std::uint32_t Mapping::tb_out_lines(const OperatorSpec& spec) const {
  // Logit: output S[h,g,l0..l1) is l_tile contiguous elements.
  // Attend: output O[h,g,:] is head_dim elements regardless of l_tile; the
  // "output lines" constraint applies to the Logit operator's AttScore.
  const std::uint32_t elems = out_elems_per_line(spec);
  return static_cast<std::uint32_t>(ceil_div(l_tile, elems));
}

void Mapping::validate(const OperatorSpec& spec) const {
  auto fail = [](const char* msg) {
    throw std::invalid_argument(std::string("Mapping: ") + msg);
  };
  if (l_tile == 0) fail("l_tile == 0");
  if (vector_lanes == 0) fail("vector_lanes == 0");
  // Constraint (1): fastest axis = D, and one vector instruction must cover
  // whole cache lines.
  const std::uint64_t vec_bytes =
      static_cast<std::uint64_t>(vector_lanes) * spec.model.dtype_bytes;
  if (vec_bytes % kLineBytes != 0)
    fail("vector width must cover whole cache lines (constraint 1)");
  if (static_cast<std::uint64_t>(spec.model.head_dim) *
          spec.model.dtype_bytes % vec_bytes !=
      0)
    fail("head_dim must be a multiple of the vector width");
  // Constraint (2): >= 64B of L innermost, i.e. l_tile covers at least one
  // full output line, and tiles are line-aligned so AttScore lines are not
  // shared between thread blocks (false sharing).
  const std::uint32_t elems = out_elems_per_line(spec);
  if (l_tile % elems != 0)
    fail("l_tile must be a multiple of one output line (constraint 2)");
  if (spec.seq_len % l_tile != 0)
    fail("seq_len must be a multiple of l_tile");
}

std::uint64_t Mapping::num_thread_blocks(const OperatorSpec& spec) const {
  return static_cast<std::uint64_t>(spec.model.num_kv_heads) *
         spec.model.group_size * (spec.seq_len / l_tile);
}

std::vector<TbDesc> Mapping::thread_blocks(const OperatorSpec& spec) const {
  validate(spec);
  const std::uint32_t H = spec.model.num_kv_heads;
  const std::uint32_t G = spec.model.group_size;
  const std::uint64_t T = spec.seq_len / l_tile;  // tiles along L
  std::vector<TbDesc> tbs;
  tbs.reserve(static_cast<std::size_t>(H) * G * T);
  auto emit = [&](std::uint32_t h, std::uint32_t g, std::uint64_t t) {
    TbDesc d;
    d.id = static_cast<TbId>(tbs.size());
    d.h = h;
    d.g = g;
    d.l_begin = t * l_tile;
    d.l_end = d.l_begin + l_tile;
    tbs.push_back(d);
  };
  switch (order) {
    case TbOrder::kHLG:
      for (std::uint32_t h = 0; h < H; ++h)
        for (std::uint64_t t = 0; t < T; ++t)
          for (std::uint32_t g = 0; g < G; ++g) emit(h, g, t);
      break;
    case TbOrder::kHGL:
      for (std::uint32_t h = 0; h < H; ++h)
        for (std::uint32_t g = 0; g < G; ++g)
          for (std::uint64_t t = 0; t < T; ++t) emit(h, g, t);
      break;
    case TbOrder::kLHG:
      for (std::uint64_t t = 0; t < T; ++t)
        for (std::uint32_t h = 0; h < H; ++h)
          for (std::uint32_t g = 0; g < G; ++g) emit(h, g, t);
      break;
  }
  return tbs;
}

TrafficEstimate estimate_traffic(const OperatorSpec& spec, const Mapping& m) {
  m.validate(spec);
  const auto& md = spec.model;
  const std::uint64_t H = md.num_kv_heads;
  const std::uint64_t G = md.group_size;
  const std::uint64_t L = spec.seq_len;
  const std::uint64_t kv_lines_per_l =
      static_cast<std::uint64_t>(md.head_dim) * md.dtype_bytes / kLineBytes;
  const std::uint64_t q_lines_per_tb = kv_lines_per_l;  // one D-vector
  const std::uint64_t tiles = L / m.l_tile;
  const std::uint64_t num_tbs = H * G * tiles;

  TrafficEstimate e;
  if (spec.kind == OpKind::kLogit) {
    // Per TB: Q vector + l_tile K vectors; store l_tile elements of S.
    e.load_line_requests =
        num_tbs * (q_lines_per_tb + m.l_tile * kv_lines_per_l);
    e.store_line_requests = num_tbs * m.tb_out_lines(spec);
    e.unique_load_lines = H * G * q_lines_per_tb      // Q
                          + H * L * kv_lines_per_l;   // K (shared across g)
    e.unique_store_lines = e.store_line_requests;     // S written once
    e.compute_cycles = num_tbs * m.l_tile * m.compute_cycles_per_l;
  } else {  // kAttend: per l, V vector + one S element (line per 32 l)
    const std::uint64_t s_lines_per_tb =
        ceil_div(m.l_tile * md.dtype_bytes, kLineBytes);
    e.load_line_requests =
        num_tbs * (m.l_tile * kv_lines_per_l + s_lines_per_tb);
    e.store_line_requests = num_tbs * q_lines_per_tb;  // partial O per tile
    e.unique_load_lines = H * L * kv_lines_per_l       // V
                          + H * G * ceil_div(L * md.dtype_bytes, kLineBytes);
    e.unique_store_lines = H * G * q_lines_per_tb;
    e.compute_cycles = num_tbs * m.l_tile * m.compute_cycles_per_l;
  }
  e.total_instructions =
      e.load_line_requests + e.store_line_requests +
      num_tbs * m.l_tile;  // one compute instruction per L element
  return e;
}

}  // namespace llamcat
