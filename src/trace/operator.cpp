#include "trace/operator.hpp"

#include <stdexcept>

#include "common/math_util.hpp"

namespace llamcat {

ModelShape ModelShape::llama3_70b() {
  return ModelShape{"llama3-70b", 8, 8, 128, 2};
}

ModelShape ModelShape::llama3_405b() {
  return ModelShape{"llama3-405b", 8, 16, 128, 2};
}

ModelShape ModelShape::llama3_8b() {
  return ModelShape{"llama3-8b", 8, 4, 128, 2};
}

ModelShape ModelShape::gemma2_27b() {
  return ModelShape{"gemma2-27b", 16, 2, 128, 2};
}

ModelShape ModelShape::qwen2_72b() {
  return ModelShape{"qwen2-72b", 8, 8, 128, 2};
}

ModelShape ModelShape::gemv(std::uint32_t cols) {
  return ModelShape{"gemv", 1, 1, cols, 2};
}

NameTable<OpKind> enum_names(OpKind) {
  static constexpr EnumName<OpKind> kNames[] = {{OpKind::kLogit, "logit"},
                                                {OpKind::kAttend, "attend"}};
  return kNames;
}

OperatorSpec OperatorSpec::logit(const ModelShape& m, std::uint64_t seq_len) {
  OperatorSpec spec;
  spec.kind = OpKind::kLogit;
  spec.model = m;
  spec.seq_len = seq_len;
  spec.validate();
  return spec;
}

OperatorSpec OperatorSpec::attend(const ModelShape& m, std::uint64_t seq_len) {
  OperatorSpec spec = logit(m, seq_len);
  spec.kind = OpKind::kAttend;
  return spec;
}

OperatorSpec OperatorSpec::gemv(std::uint64_t rows, std::uint32_t cols) {
  return logit(ModelShape::gemv(cols), rows);
}

void OperatorSpec::validate() const {
  auto fail = [](const char* msg) {
    throw std::invalid_argument(std::string("OperatorSpec: ") + msg);
  };
  if (model.num_kv_heads == 0 || model.group_size == 0 || model.head_dim == 0)
    fail("zero model dimension");
  if (seq_len == 0) fail("zero sequence length");
  if (model.dtype_bytes == 0 || kLineBytes % model.dtype_bytes != 0)
    fail("dtype must divide the line size");
  const std::uint64_t row_bytes =
      static_cast<std::uint64_t>(model.head_dim) * model.dtype_bytes;
  if (row_bytes % kLineBytes != 0)
    fail("head_dim * dtype must be line-aligned (vector coalescing)");
  // Tensor regions must not overlap.
  if (q_base + q_bytes() > kv_base) fail("Q overlaps K/V region");
  if (kv_base + kv_bytes() > s_base) fail("K/V overlaps S region");
  if (s_base + s_bytes() > out_base) fail("S overlaps output region");
}

}  // namespace llamcat
