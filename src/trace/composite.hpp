// Fuses the thread blocks of N per-operator trace sources into one dispatch
// list so one System run co-schedules concurrent requests against the shared
// LLC. Each operator sits in its own 16 GiB address slot (the slot shifting
// that used to live in the scenario layer), which makes address -> request
// attribution exact: the composite doubles as the IRequestTagger the sim
// layer uses to split shared-run statistics per request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/enum_names.hpp"
#include "common/types.hpp"
#include "trace/mapping.hpp"
#include "trace/operator.hpp"
#include "trace/tracegen.hpp"

namespace llamcat {

/// Address-space stride between operator slots. Every operator of a slot has
/// all four tensor bases shifted by slot * kSlotStride, so distinct
/// requests/layers occupy distinct DRAM rows (and hash to different LLC
/// slices) without perturbing the intra-operator layout the defaults encode.
inline constexpr Addr kSlotStride = 0x4'0000'0000;  // 16 GiB

/// Relocates all four tensor bases of `spec` into address slot `slot`.
OperatorSpec shift_to_slot(OperatorSpec spec, std::uint64_t slot);

/// Registers every address slot `spec`'s tensors touch in `owner`
/// (slot -> dense request index). Slots are the attribution granule, so two
/// requests sharing one slot would make their stats indistinguishable;
/// throws std::invalid_argument if a slot is already owned by a different
/// dense index (`request_ids` maps dense -> external id for the message).
/// Shared by CompositeTbSource and DynamicTbSource.
void claim_operator_slots(
    std::unordered_map<std::uint64_t, std::uint32_t>& owner,
    std::uint32_t dense, std::uint32_t request_id,
    const std::vector<std::uint32_t>& request_ids, const OperatorSpec& spec);

/// How the fused dispatch list interleaves the sub-operators' thread blocks.
enum class FuseOrder : std::uint8_t {
  kRoundRobin,  // one TB from each operator in turn: requests co-resident
  kConcat,      // operator-major: requests drain mostly back-to-back
};

/// Name table (common/enum_names.hpp): canonical name first, then aliases.
NameTable<FuseOrder> enum_names(FuseOrder);

/// ITbSource over the union of N single-operator TraceGens, with per-TB
/// request/operator provenance and address-based request attribution.
class CompositeTbSource final : public ITbSource, public IRequestTagger {
 public:
  explicit CompositeTbSource(FuseOrder order = FuseOrder::kRoundRobin)
      : order_(order) {}

  /// Adds one operator owned by `request_id`. The spec must already sit in
  /// its final address slot (see shift_to_slot); the composite registers
  /// every slot the spec's tensors touch for attribution and throws
  /// std::invalid_argument if a slot is already owned by another request.
  void add(std::uint32_t request_id, OperatorSpec spec, Mapping mapping);

  // -- ITbSource ------------------------------------------------------------
  [[nodiscard]] std::uint64_t num_tbs() const override {
    ensure_built();
    return tbs_.size();
  }
  [[nodiscard]] const TbDesc& tb(std::uint64_t idx) const override {
    ensure_built();
    return tbs_[idx];
  }
  [[nodiscard]] std::uint32_t instr_count(std::uint64_t tb_idx) const override;
  [[nodiscard]] Instr instr_at(std::uint64_t tb_idx,
                               std::uint32_t i) const override;

  // -- IRequestTagger -------------------------------------------------------
  [[nodiscard]] std::uint32_t num_requests() const override {
    return static_cast<std::uint32_t>(request_ids_.size());
  }
  [[nodiscard]] std::uint32_t request_index_of(Addr line_addr) const override;
  [[nodiscard]] std::uint32_t request_id_at(
      std::uint32_t index) const override {
    return request_ids_[index];
  }

  // -- introspection --------------------------------------------------------
  [[nodiscard]] std::size_t num_ops() const { return gens_.size(); }
  [[nodiscard]] FuseOrder order() const { return order_; }
  [[nodiscard]] const TraceGen& op(std::size_t i) const { return *gens_[i]; }

 private:
  struct Ref {
    std::uint32_t op = 0;
    std::uint64_t local = 0;  // TB index within gens_[op]
  };

  /// Materializes the fused dispatch list on first use after add()s (adding
  /// B operators then building once is O(total TBs), not O(B * total)).
  void ensure_built() const;

  FuseOrder order_;
  std::vector<std::unique_ptr<TraceGen>> gens_;
  std::vector<std::uint32_t> op_request_id_;  // per op: external request id
  std::vector<std::uint32_t> request_ids_;    // dense index -> external id
  std::unordered_map<std::uint32_t, std::uint32_t> request_index_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_owner_;  // -> dense
  // Lazily built dispatch-list cache (see ensure_built).
  mutable bool built_ = false;
  mutable std::vector<Ref> refs_;    // global TB idx -> (op, local)
  mutable std::vector<TbDesc> tbs_;  // with provenance, ids renumbered
};

}  // namespace llamcat
