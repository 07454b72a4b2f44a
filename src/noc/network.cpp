#include "noc/network.hpp"

namespace llamcat {

Network::Network(const NocConfig& cfg, std::uint32_t num_slices,
                 std::uint32_t credits_per_slice)
    : ingress_(num_slices),
      resp_ch_(cfg.resp_latency),
      credits_per_slice_(credits_per_slice) {
  req_ch_.reserve(num_slices);
  for (std::uint32_t s = 0; s < num_slices; ++s)
    req_ch_.emplace_back(cfg.req_latency);
  credits_.assign(num_slices, credits_per_slice_);
}

}  // namespace llamcat
