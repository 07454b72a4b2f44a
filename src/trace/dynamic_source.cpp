#include "trace/dynamic_source.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
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

std::uint32_t DynamicTbSource::dense_of(std::uint32_t request_id) {
  const auto [it, inserted] = request_index_.try_emplace(
      request_id, static_cast<std::uint32_t>(request_ids_.size()));
  if (inserted) {
    request_ids_.push_back(request_id);
    req_retired_.push_back(false);
  }
  return it->second;
}

void DynamicTbSource::add(std::uint32_t request_id, OperatorSpec spec,
                          Mapping mapping) {
  const std::uint32_t dense = dense_of(request_id);
  if (req_retired_[dense]) {
    throw std::invalid_argument("DynamicTbSource: request " +
                                std::to_string(request_id) +
                                " was already retired");
  }
  claim_slots(dense, spec);
  staged_.push_back(static_cast<std::uint32_t>(gens_.size()));
  gens_.push_back(std::make_unique<TraceGen>(std::move(spec), mapping));
  op_request_id_.push_back(request_id);
}

void DynamicTbSource::claim_slots(std::uint32_t dense,
                                  const OperatorSpec& spec) {
  const auto claim = [&](Addr base, std::uint64_t bytes) {
    const std::uint64_t first = base / kSlotStride;
    const std::uint64_t last = (base + (bytes ? bytes - 1 : 0)) / kSlotStride;
    for (std::uint64_t s = first; s <= last; ++s) {
      const auto [slot_it, fresh] = slot_owner_.try_emplace(s, dense);
      if (!fresh && slot_it->second != dense) {
        throw std::invalid_argument(
            "fused trace source: address slot " + std::to_string(s) +
            " aliased by requests " +
            std::to_string(request_ids_[slot_it->second]) + " and " +
            std::to_string(request_ids_[dense]));
      }
    }
  };
  claim(spec.q_base, spec.q_bytes());
  claim(spec.kv_base, spec.kv_bytes());
  claim(spec.s_base, spec.s_bytes());
  claim(spec.out_base, spec.q_bytes());  // O has Q's shape
}

std::uint64_t DynamicTbSource::commit(FuseOrder order) {
  std::uint64_t added = 0;
  for (const std::uint32_t op : staged_) added += gens_[op]->num_tbs();
  refs_.reserve(refs_.size() + added);
  tbs_.reserve(tbs_.size() + added);

  const auto append = [this](std::uint32_t op, std::uint64_t local) {
    const std::uint64_t idx = refs_.size();
    refs_.push_back(Ref{op, local});
    TbDesc d = gens_[op]->tb(local);
    d.id = static_cast<TbId>(idx);
    d.request_id = op_request_id_[op];
    d.source_op = op;
    tbs_.push_back(d);
  };

  if (order == FuseOrder::kConcat) {
    for (const std::uint32_t op : staged_) {
      for (std::uint64_t t = 0; t < gens_[op]->num_tbs(); ++t) append(op, t);
    }
  } else {  // kRoundRobin: one TB per staged operator in turn, staging order
    std::vector<std::uint64_t> next(staged_.size(), 0);
    std::uint64_t placed = 0;
    while (placed < added) {
      for (std::size_t i = 0; i < staged_.size(); ++i) {
        const std::uint32_t op = staged_[i];
        if (next[i] < gens_[op]->num_tbs()) {
          append(op, next[i]++);
          ++placed;
        }
      }
    }
  }
  staged_.clear();
  return added;
}

void DynamicTbSource::retire_request(std::uint32_t request_id) {
  const auto it = request_index_.find(request_id);
  if (it == request_index_.end()) return;
  req_retired_[it->second] = true;
  for (std::size_t op = 0; op < gens_.size(); ++op) {
    if (op_request_id_[op] == request_id) gens_[op].reset();
  }
}

bool DynamicTbSource::retired(std::uint32_t request_id) const {
  const auto it = request_index_.find(request_id);
  return it != request_index_.end() && req_retired_[it->second];
}

std::uint32_t DynamicTbSource::instr_count(std::uint64_t tb_idx) const {
  const Ref& r = refs_[tb_idx];
  assert(gens_[r.op] && "instruction stream of a retired request");
  return gens_[r.op]->instr_count(r.local);
}

Instr DynamicTbSource::instr_at(std::uint64_t tb_idx, std::uint32_t i) const {
  const Ref& r = refs_[tb_idx];
  assert(gens_[r.op] && "instruction stream of a retired request");
  return gens_[r.op]->instr_at(r.local, i);
}

std::uint32_t DynamicTbSource::request_index_of(Addr line_addr) const {
  const auto it = slot_owner_.find(line_addr / kSlotStride);
  return it == slot_owner_.end() ? kNoRequest : it->second;
}

}  // namespace llamcat
