// The multi-request trace source: fuses the thread blocks of many
// per-operator TraceGens into one dispatch list, so one System run
// co-schedules concurrent requests against the shared LLC. add() stages an
// operator; commit() appends the staged operators' thread blocks,
// optionally interleaved round-robin. A fixed co-scheduled wave is one
// commit before the System is built. The continuous-batching engine keeps
// growing the source while its System runs: it stages a request's next
// operator the moment the previous one completes, commits, and the
// scheduler picks the new blocks up through TbScheduler::sync_with_source().
// Committed thread-block indices are stable forever.
//
// Requests occupy disjoint 16 GiB address slots (see kSlotStride), so the
// source doubles as the exact IRequestTagger that splits shared-run stats
// per request. retire_request() releases a finished request's instruction
// streams but keeps its slot ownership and dense index, so late writebacks
// of its lines still attribute correctly.
#pragma once

#include <cstdint>
#include <memory>
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

/// How commit() interleaves the staged operators' thread blocks.
enum class FuseOrder : std::uint8_t {
  kRoundRobin,  // one TB from each operator in turn: requests co-resident
  kConcat,      // operator-major: requests drain mostly back-to-back
};

/// Name table (common/enum_names.hpp): canonical name first, then aliases.
NameTable<FuseOrder> enum_names(FuseOrder);

class DynamicTbSource final : public ITbSource, public IRequestTagger {
 public:
  /// Stages one operator owned by `request_id` for the next commit(). The
  /// spec must already sit in its final address slot (see shift_to_slot);
  /// staging claims every slot the spec's tensors touch and throws
  /// std::invalid_argument on cross-request aliasing.
  void add(std::uint32_t request_id, OperatorSpec spec, Mapping mapping);

  /// Appends the staged operators' thread blocks to the dispatch list and
  /// returns how many were added. kRoundRobin interleaves one TB per staged
  /// operator in turn (staging order); kConcat appends operator-major.
  /// Previously committed TBs keep their indices.
  std::uint64_t commit(FuseOrder order = FuseOrder::kRoundRobin);

  /// Releases the instruction streams of every operator owned by
  /// `request_id`. Only valid once all of the request's thread blocks have
  /// completed; the request's TbDescs, slot ownership and dense index
  /// survive so attribution of straggler traffic stays exact.
  void retire_request(std::uint32_t request_id);
  [[nodiscard]] bool retired(std::uint32_t request_id) const;

  // -- ITbSource ------------------------------------------------------------
  [[nodiscard]] std::uint64_t num_tbs() const override { return tbs_.size(); }
  [[nodiscard]] const TbDesc& tb(std::uint64_t idx) const override {
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
  [[nodiscard]] std::size_t staged_ops() const { return staged_.size(); }

 private:
  struct Ref {
    std::uint32_t op = 0;
    std::uint64_t local = 0;  // TB index within gens_[op]
  };

  [[nodiscard]] std::uint32_t dense_of(std::uint32_t request_id);

  /// Registers every address slot `spec`'s tensors touch as owned by dense
  /// request `dense`. Slots are the attribution granule, so two requests
  /// sharing one slot would make their stats indistinguishable: throws
  /// std::invalid_argument if a slot is already owned by another request.
  void claim_slots(std::uint32_t dense, const OperatorSpec& spec);

  std::vector<std::unique_ptr<TraceGen>> gens_;
  std::vector<std::uint32_t> op_request_id_;  // per op: external request id
  std::vector<std::uint32_t> staged_;         // op indices awaiting commit
  std::vector<std::uint32_t> request_ids_;    // dense index -> external id
  std::unordered_map<std::uint32_t, std::uint32_t> request_index_;
  std::unordered_map<std::uint64_t, std::uint32_t> slot_owner_;  // -> dense
  std::vector<bool> req_retired_;        // per dense
  std::vector<Ref> refs_;    // global TB idx -> (op, local)
  std::vector<TbDesc> tbs_;  // with provenance, ids renumbered
};

}  // namespace llamcat
