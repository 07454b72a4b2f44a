// Dataflow mapping of an operator onto the machine: which loop runs where
// (Timeloop-style spatial/temporal levels) and how L is tiled into thread
// blocks. Mappings can come from the built-in Mapper or be handwritten, as
// in the paper's flow (Fig 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "trace/operator.hpp"

namespace llamcat {

/// Order in which thread blocks are emitted to the global scheduler. The
/// paper's workload uses wave order (h, l-tile, g): the G thread blocks that
/// share one KV tile are adjacent, so they run concurrently across cores and
/// their K accesses can merge in cache/MSHR (the GQA locality of §6.3.3).
enum class TbOrder : std::uint8_t {
  kHLG,  // for h { for l_tile { for g } } } - wave order (default)
  kHGL,  // for h { for g { for l_tile } } } - per-head streaming
  kLHG,  // for l_tile { for h { for g } } } - tile-major
};

NameTable<TbOrder> enum_names(TbOrder);

/// One thread block: a contiguous L-range of one (h, g) pair.
///
/// `request_id` / `source_op` record provenance when thread blocks of
/// several operators are fused into one dispatch list (DynamicTbSource):
/// the serving request the block belongs to and the index of its operator
/// within the fused source. Single-operator sources leave both at 0.
struct TbDesc {
  TbId id = 0;
  std::uint32_t h = 0;
  std::uint32_t g = 0;
  std::uint64_t l_begin = 0;
  std::uint64_t l_end = 0;  // exclusive
  std::uint32_t request_id = 0;
  std::uint32_t source_op = 0;

  [[nodiscard]] std::uint64_t l_count() const { return l_end - l_begin; }
};

/// Complete mapping of an operator run.
struct Mapping {
  /// L elements per thread block (the innermost L1 temporal tile).
  std::uint32_t l_tile = 32;
  TbOrder order = TbOrder::kHLG;
  /// Vector width in elements; one vector load coalesces into
  /// lanes*dtype/64 line requests (paper §5: 128-wide vector cores).
  std::uint32_t vector_lanes = 128;
  /// Core compute cycles charged per L element (the MAC+reduce work between
  /// K-line loads; decode is memory bound so this is small).
  std::uint32_t compute_cycles_per_l = 2;

  /// Output elements per cache line for this operator's dtype.
  [[nodiscard]] std::uint32_t out_elems_per_line(
      const OperatorSpec& spec) const {
    return kLineBytes / spec.model.dtype_bytes;
  }
  /// Output cache lines each thread block covers (the paper constrains this
  /// to 1-2, §6.2.2).
  [[nodiscard]] std::uint32_t tb_out_lines(const OperatorSpec& spec) const;

  /// Validates the paper's dataflow constraints against `spec`:
  ///  (1) the fastest axis maps whole cache lines to each vector core;
  ///  (2) at least 64B of the L dimension sits in the innermost L1 temporal
  ///      level (no AttScore false sharing across cores).
  /// Throws std::invalid_argument on violation.
  void validate(const OperatorSpec& spec) const;

  /// Expands the mapping into the global thread-block dispatch list.
  [[nodiscard]] std::vector<TbDesc> thread_blocks(
      const OperatorSpec& spec) const;

  /// Number of thread blocks without materializing them.
  [[nodiscard]] std::uint64_t num_thread_blocks(
      const OperatorSpec& spec) const;
};

/// Closed-form traffic numbers for a (spec, mapping) pair; used by the
/// mapper's cost model and by tests to cross-check the trace generator.
struct TrafficEstimate {
  std::uint64_t total_instructions = 0;
  std::uint64_t load_line_requests = 0;   // line-granular loads issued
  std::uint64_t store_line_requests = 0;
  std::uint64_t unique_load_lines = 0;    // compulsory DRAM traffic floor
  std::uint64_t unique_store_lines = 0;
  std::uint64_t compute_cycles = 0;

  [[nodiscard]] std::uint64_t min_dram_bytes() const {
    return (unique_load_lines + unique_store_lines) * kLineBytes;
  }
  /// Loads issued per unique line: the GQA reuse the policies try to catch.
  [[nodiscard]] double reuse_factor() const {
    return unique_load_lines == 0
               ? 0.0
               : static_cast<double>(load_line_requests) /
                     static_cast<double>(unique_load_lines);
  }
};

TrafficEstimate estimate_traffic(const OperatorSpec& spec, const Mapping& m);

}  // namespace llamcat
