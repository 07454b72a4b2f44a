// Core value types shared by every subsystem.
#pragma once

#include <cstdint>
#include <limits>

namespace llamcat {

/// Byte address in the simulated physical address space.
using Addr = std::uint64_t;
/// Simulation time in core clock cycles (1.96 GHz by default).
using Cycle = std::uint64_t;
/// Core identifier (0 .. num_cores-1).
using CoreId = std::uint16_t;
/// Thread-block identifier, unique within one operator execution.
using TbId = std::uint32_t;

inline constexpr Cycle kNeverCycle = std::numeric_limits<Cycle>::max();
inline constexpr std::uint32_t kInvalidCore = 0xFFFF;

/// All caches in the modeled system use 64-byte lines (paper Table 5).
inline constexpr std::uint32_t kLineBytes = 64;

/// Rounds a byte address down to its cache-line base.
constexpr Addr line_align(Addr a) { return a & ~static_cast<Addr>(kLineBytes - 1); }
/// Line index of a byte address (address / 64).
constexpr Addr line_index(Addr a) { return a / kLineBytes; }
/// No line-aligned address has its low bits set: the empty / invalid marker
/// of tag arrays and address-keyed lookup tables.
inline constexpr Addr kNoAddr = ~Addr{0};

enum class AccessType : std::uint8_t { kLoad, kStore };

/// Request-index value meaning "address belongs to no tracked request".
inline constexpr std::uint32_t kNoRequest = 0xFFFFFFFF;

/// Maps simulated addresses back to the serving request that owns them.
/// Implemented by the trace layer's DynamicTbSource (requests occupy
/// disjoint 16 GiB address slots, so the mapping is exact); consumed by the
/// LLC slices and the System to attribute shared-run statistics per request
/// without threading tags through every in-flight message.
class IRequestTagger {
 public:
  virtual ~IRequestTagger() = default;
  /// Number of distinct requests in the fused run.
  [[nodiscard]] virtual std::uint32_t num_requests() const = 0;
  /// Dense index (0 .. num_requests-1) of the request owning `line_addr`,
  /// or kNoRequest for untracked addresses.
  [[nodiscard]] virtual std::uint32_t request_index_of(Addr line_addr)
      const = 0;
  /// External request id for a dense index.
  [[nodiscard]] virtual std::uint32_t request_id_at(
      std::uint32_t index) const = 0;
};

/// One line-granular memory request travelling core -> L1 -> NoC -> LLC.
///
/// `req_id` is a core-local tag the issuing core uses to wake the right
/// instruction-window slot when the response comes back; stores carry
/// req_id == kStoreReqId and produce no response.
struct MemRequest {
  Addr line_addr = 0;  // line-aligned byte address
  AccessType type = AccessType::kLoad;
  CoreId core = 0;
  std::uint32_t req_id = 0;
  std::uint64_t seq = 0;     // global arrival order, FCFS tie-break
  Cycle issue_cycle = 0;     // cycle the core issued it
};

inline constexpr std::uint32_t kStoreReqId = 0xFFFFFFFF;

/// Response delivered back to a core for a completed load.
struct MemResponse {
  Addr line_addr = 0;
  CoreId core = 0;
  std::uint32_t req_id = 0;
};

}  // namespace llamcat
