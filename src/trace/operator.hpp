// Decode-stage attention operators (paper §6.2.2). The Logit operator
// (Q·Kᵀ) is the paper's benchmark; Attend (S·V) is provided as the natural
// companion for the full attention pipeline.
#pragma once

#include <cstdint>
#include <string>

#include "common/enum_names.hpp"
#include "common/types.hpp"

namespace llamcat {

/// GQA model shape: H KV heads, each shared by G query heads of dim D.
struct ModelShape {
  std::string name;
  std::uint32_t num_kv_heads = 8;   // H
  std::uint32_t group_size = 8;     // G (query heads per KV head)
  std::uint32_t head_dim = 128;     // D
  std::uint32_t dtype_bytes = 2;    // fp16

  /// Llama3 70b decode shape used in the paper: H=8, G=8, D=128.
  static ModelShape llama3_70b();
  /// Llama3 405b decode shape used in the paper: H=8, G=16, D=128.
  static ModelShape llama3_405b();
  /// Llama3 8b: 32 query heads over 8 KV heads (H=8, G=4, D=128).
  static ModelShape llama3_8b();
  /// Gemma2 27b: 32 query heads over 16 KV heads (H=16, G=2, D=128).
  static ModelShape gemma2_27b();
  /// Qwen2 72b: 64 query heads over 8 KV heads (H=8, G=8, D=128).
  static ModelShape qwen2_72b();
  /// Degenerate no-GQA shape (H=1, G=1, D=cols): turns the Logit operator
  /// into a plain GEMV y[L] = W[L,D]·x[D] with no cross-request sharing -
  /// the paper's §6.3.3 counterpoint ("non-GQA operators do not share
  /// activation across heads"). `cols` must keep rows line-aligned
  /// (cols * dtype % 64 == 0).
  static ModelShape gemv(std::uint32_t cols);
};

enum class OpKind : std::uint8_t {
  kLogit,   // S[h,g,l] = sum_d Q[h,g,d] * K[h,l,d]
  kAttend,  // O[h,g,d] = sum_l S[h,g,l] * V[h,l,d]
};

NameTable<OpKind> enum_names(OpKind);

/// A fully-specified operator instance: shape + sequence length + the
/// simulated address layout of its tensors.
///
/// Layouts (row-major, innermost last):
///   Q / O : [H*G][D]        at q_base / out_base
///   K / V : [H][L][D]       at kv_base
///   S     : [H][G][L]       at s_base
struct OperatorSpec {
  OpKind kind = OpKind::kLogit;
  ModelShape model;
  std::uint64_t seq_len = 4096;  // L

  Addr q_base = 0x4000'0000;    // 1 GB
  Addr kv_base = 0x8000'0000;   // 2 GB
  Addr s_base = 0x2'0000'0000;  // 8 GB
  Addr out_base = 0x3'0000'0000;

  static OperatorSpec logit(const ModelShape& m, std::uint64_t seq_len);
  static OperatorSpec attend(const ModelShape& m, std::uint64_t seq_len);
  /// GEMV y[rows] = W[rows, cols] · x[cols]: a Logit instance on the
  /// degenerate H=1/G=1 shape (x maps to Q, W maps to K, y maps to S).
  /// Models memory-bound decode GEMVs (FFN / LM-head tiles) that stream
  /// weights with no GQA sharing.
  static OperatorSpec gemv(std::uint64_t rows, std::uint32_t cols);

  // -- byte sizes -----------------------------------------------------------
  [[nodiscard]] std::uint64_t q_bytes() const {
    return static_cast<std::uint64_t>(model.num_kv_heads) * model.group_size *
           model.head_dim * model.dtype_bytes;
  }
  [[nodiscard]] std::uint64_t kv_bytes() const {
    return static_cast<std::uint64_t>(model.num_kv_heads) * seq_len *
           model.head_dim * model.dtype_bytes;
  }
  [[nodiscard]] std::uint64_t s_bytes() const {
    return static_cast<std::uint64_t>(model.num_kv_heads) * model.group_size *
           seq_len * model.dtype_bytes;
  }

  // -- element addressing ---------------------------------------------------
  [[nodiscard]] Addr q_elem(std::uint32_t h, std::uint32_t g,
                            std::uint32_t d) const {
    return q_base + ((static_cast<Addr>(h) * model.group_size + g) *
                         model.head_dim +
                     d) *
                        model.dtype_bytes;
  }
  [[nodiscard]] Addr kv_elem(std::uint32_t h, std::uint64_t l,
                             std::uint32_t d) const {
    return kv_base + ((static_cast<Addr>(h) * seq_len + l) * model.head_dim +
                      d) *
                         model.dtype_bytes;
  }
  [[nodiscard]] Addr s_elem(std::uint32_t h, std::uint32_t g,
                            std::uint64_t l) const {
    return s_base + ((static_cast<Addr>(h) * model.group_size + g) * seq_len +
                     l) *
                        model.dtype_bytes;
  }
  [[nodiscard]] Addr out_elem(std::uint32_t h, std::uint32_t g,
                              std::uint32_t d) const {
    return out_base + ((static_cast<Addr>(h) * model.group_size + g) *
                           model.head_dim +
                       d) *
                          model.dtype_bytes;
  }

  /// MACs performed by the whole operator (for intensity reports).
  [[nodiscard]] std::uint64_t total_macs() const {
    return static_cast<std::uint64_t>(model.num_kv_heads) * model.group_size *
           seq_len * model.head_dim;
  }

  void validate() const;
};

}  // namespace llamcat
