#include "trace/composite.hpp"

#include <stdexcept>
#include <utility>

namespace llamcat {

OperatorSpec shift_to_slot(OperatorSpec spec, std::uint64_t slot) {
  const Addr delta = static_cast<Addr>(slot) * kSlotStride;
  spec.q_base += delta;
  spec.kv_base += delta;
  spec.s_base += delta;
  spec.out_base += delta;
  return spec;
}

NameTable<FuseOrder> enum_names(FuseOrder) {
  static constexpr EnumName<FuseOrder> kNames[] = {
      {FuseOrder::kRoundRobin, "round-robin"}, {FuseOrder::kRoundRobin, "rr"},
      {FuseOrder::kConcat, "concat"}};
  return kNames;
}

void claim_operator_slots(
    std::unordered_map<std::uint64_t, std::uint32_t>& owner,
    std::uint32_t dense, std::uint32_t request_id,
    const std::vector<std::uint32_t>& request_ids, const OperatorSpec& spec) {
  const auto claim = [&](Addr base, std::uint64_t bytes) {
    const std::uint64_t first = base / kSlotStride;
    const std::uint64_t last = (base + (bytes ? bytes - 1 : 0)) / kSlotStride;
    for (std::uint64_t s = first; s <= last; ++s) {
      const auto [slot_it, fresh] = owner.try_emplace(s, dense);
      if (!fresh && slot_it->second != dense) {
        throw std::invalid_argument(
            "fused trace source: address slot " + std::to_string(s) +
            " aliased by requests " +
            std::to_string(request_ids[slot_it->second]) + " and " +
            std::to_string(request_id));
      }
    }
  };
  claim(spec.q_base, spec.q_bytes());
  claim(spec.kv_base, spec.kv_bytes());
  claim(spec.s_base, spec.s_bytes());
  claim(spec.out_base, spec.q_bytes());  // O has Q's shape
}

void CompositeTbSource::add(std::uint32_t request_id, OperatorSpec spec,
                            Mapping mapping) {
  // Dense request index (order of first appearance).
  const auto [it, inserted] = request_index_.try_emplace(
      request_id, static_cast<std::uint32_t>(request_ids_.size()));
  if (inserted) request_ids_.push_back(request_id);
  const std::uint32_t dense = it->second;

  claim_operator_slots(slot_owner_, dense, request_id, request_ids_, spec);

  gens_.push_back(std::make_unique<TraceGen>(std::move(spec), mapping));
  op_request_id_.push_back(request_id);
  built_ = false;
}

void CompositeTbSource::ensure_built() const {
  if (built_) return;
  built_ = true;
  refs_.clear();
  tbs_.clear();
  std::uint64_t total = 0;
  for (const auto& g : gens_) total += g->num_tbs();
  refs_.reserve(total);
  tbs_.reserve(total);

  if (order_ == FuseOrder::kConcat) {
    for (std::uint32_t op = 0; op < gens_.size(); ++op) {
      for (std::uint64_t t = 0; t < gens_[op]->num_tbs(); ++t) {
        refs_.push_back(Ref{op, t});
      }
    }
  } else {  // kRoundRobin: one TB per operator in turn, operators in add order
    std::vector<std::uint64_t> next(gens_.size(), 0);
    std::uint64_t placed = 0;
    while (placed < total) {
      for (std::uint32_t op = 0; op < gens_.size(); ++op) {
        if (next[op] < gens_[op]->num_tbs()) {
          refs_.push_back(Ref{op, next[op]++});
          ++placed;
        }
      }
    }
  }

  for (std::uint64_t idx = 0; idx < refs_.size(); ++idx) {
    const Ref& r = refs_[idx];
    TbDesc d = gens_[r.op]->tb(r.local);
    d.id = static_cast<TbId>(idx);
    d.request_id = op_request_id_[r.op];
    d.source_op = r.op;
    tbs_.push_back(d);
  }
}

std::uint32_t CompositeTbSource::instr_count(std::uint64_t tb_idx) const {
  ensure_built();
  const Ref& r = refs_[tb_idx];
  return gens_[r.op]->instr_count(r.local);
}

Instr CompositeTbSource::instr_at(std::uint64_t tb_idx,
                                  std::uint32_t i) const {
  ensure_built();
  const Ref& r = refs_[tb_idx];
  return gens_[r.op]->instr_at(r.local, i);
}

std::uint32_t CompositeTbSource::request_index_of(Addr line_addr) const {
  const auto it = slot_owner_.find(line_addr / kSlotStride);
  return it == slot_owner_.end() ? kNoRequest : it->second;
}

}  // namespace llamcat
