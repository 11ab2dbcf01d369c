// Blocked-scalar kernel: walks over the (shift, sign) groups of dense
// and conv plans — plain C++ the compiler can unroll and
// auto-vectorize, no intrinsics.
#include "man/backend/backend_impls.h"
#include "man/backend/planes_kernel.h"

namespace man::backend::detail {

namespace {

class BlockedBackend final : public KernelBackend {
 public:
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kBlocked;
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "blocked";
  }
  [[nodiscard]] const char* description() const noexcept override {
    return "blocked-scalar over groups";
  }
  [[nodiscard]] bool accelerated() const noexcept override { return false; }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
    accumulate_groups(plan, multiples, out);
  }

  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             const std::int32_t* tile,
                             std::int64_t* out) const override {
    accumulate_groups_tile(plan, tile, out);
  }

  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    exact_dense_blocked(plan, activations, out);
  }

  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const override {
    accumulate_conv_groups(plan, multiples, out);
  }

  void accumulate_conv_int32(const ConvLayerPlan& plan,
                             const std::int32_t* multiples,
                             std::int64_t* out) const override {
    accumulate_conv_groups(plan, multiples, out);
  }

  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    exact_conv_blocked(plan, activations, out);
  }
};

}  // namespace

const KernelBackend& blocked_backend() {
  static const BlockedBackend backend;
  return backend;
}

}  // namespace man::backend::detail
