// The sequential reference: FixedNetwork's original dense inner loops,
// extracted verbatim onto the DenseLayerPlan's AoS schedule. Every
// other backend is defined as "bit-identical to this".
#include "man/backend/backend_impls.h"

namespace man::backend::detail {

namespace {

class ScalarBackend final : public KernelBackend {
 public:
  [[nodiscard]] BackendKind kind() const noexcept override {
    return BackendKind::kScalar;
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "scalar";
  }
  [[nodiscard]] const char* description() const noexcept override {
    return "sequential reference (AoS select/shift schedule)";
  }
  [[nodiscard]] bool accelerated() const noexcept override { return false; }

  void accumulate_dense(const DenseLayerPlan& plan,
                        const std::int64_t* multiples,
                        std::int64_t* out) const override {
    for (int o = 0; o < plan.rows; ++o) {
      std::int64_t acc = plan.biases[static_cast<std::size_t>(o)];
      const std::size_t row = static_cast<std::size_t>(o) * plan.cols;
      for (int i = 0; i < plan.cols; ++i) {
        const AsmWeight& w = plan.asm_weights[row + i];
        if (w.step_count == 0) continue;
        const std::int64_t* m =
            &multiples[static_cast<std::size_t>(i) * plan.k];
        std::int64_t product = 0;
        for (std::uint8_t s = 0; s < w.step_count; ++s) {
          const AsmStep& step = plan.steps[w.step_begin + s];
          product += m[step.lane] << step.shift;
        }
        acc += w.negative ? -product : product;
      }
      out[o] = acc;
    }
  }

  void accumulate_dense_tile(const DenseLayerPlan& plan,
                             const std::int64_t* tile,
                             std::int64_t* out) const override {
    // The same AoS walk, each slot read at stride kDenseTile.
    constexpr std::size_t kTile = kDenseTile;
    for (int o = 0; o < plan.rows; ++o) {
      const std::size_t row = static_cast<std::size_t>(o) * plan.cols;
      for (std::size_t b = 0; b < kTile; ++b) {
        std::int64_t acc = plan.biases[static_cast<std::size_t>(o)];
        for (int i = 0; i < plan.cols; ++i) {
          const AsmWeight& w = plan.asm_weights[row + i];
          if (w.step_count == 0) continue;
          const std::int64_t* m =
              &tile[static_cast<std::size_t>(i) * plan.k * kTile + b];
          std::int64_t product = 0;
          for (std::uint8_t s = 0; s < w.step_count; ++s) {
            const AsmStep& step = plan.steps[w.step_begin + s];
            product += m[step.lane * kTile] << step.shift;
          }
          acc += w.negative ? -product : product;
        }
        out[static_cast<std::size_t>(o) * kTile + b] = acc;
      }
    }
  }

  void exact_dense(const DenseLayerPlan& plan,
                   const std::int64_t* activations,
                   std::int64_t* out) const override {
    for (int o = 0; o < plan.rows; ++o) {
      const std::int32_t* wrow =
          &plan.weights[static_cast<std::size_t>(o) * plan.cols];
      std::int64_t acc = plan.biases[static_cast<std::size_t>(o)];
      for (int i = 0; i < plan.cols; ++i) {
        acc += static_cast<std::int64_t>(wrow[i]) *
               activations[static_cast<std::size_t>(i)];
      }
      out[o] = acc;
    }
  }

  void accumulate_conv(const ConvLayerPlan& plan,
                       const std::int64_t* multiples,
                       std::int64_t* out) const override {
    // The original 6-deep ConvStage reference loop, re-expressed over
    // the plan's patch columns: column c of filter r at position
    // (oy, ox) reads the lane-major multiples of input element
    // patch_elems[c] + oy·iw + ox, in the same (ic, ky, kx) order the
    // hand-rolled loop visited.
    const std::size_t positions = plan.positions();
    const std::size_t elems = plan.input_elems();
    for (int r = 0; r < plan.oc; ++r) {
      const std::size_t row = static_cast<std::size_t>(r) * plan.cols;
      for (int oy = 0; oy < plan.oh; ++oy) {
        for (int ox = 0; ox < plan.ow; ++ox) {
          const std::size_t elem_base =
              static_cast<std::size_t>(oy) * plan.iw + ox;
          std::int64_t acc = plan.biases[static_cast<std::size_t>(r)];
          for (int c = 0; c < plan.cols; ++c) {
            const AsmWeight& w = plan.asm_weights[row + c];
            if (w.step_count == 0) continue;
            const std::int64_t* m =
                &multiples[plan.patch_elems[static_cast<std::size_t>(c)] +
                           elem_base];
            std::int64_t product = 0;
            for (std::uint8_t s = 0; s < w.step_count; ++s) {
              const AsmStep& step = plan.steps[w.step_begin + s];
              product += m[step.lane * elems] << step.shift;
            }
            acc += w.negative ? -product : product;
          }
          out[static_cast<std::size_t>(r) * positions +
              static_cast<std::size_t>(oy) * plan.ow + ox] = acc;
        }
      }
    }
  }

  void exact_conv(const ConvLayerPlan& plan,
                  const std::int64_t* activations,
                  std::int64_t* out) const override {
    const std::size_t positions = plan.positions();
    for (int r = 0; r < plan.oc; ++r) {
      const std::int32_t* wrow =
          &plan.weights[static_cast<std::size_t>(r) * plan.cols_padded];
      for (int oy = 0; oy < plan.oh; ++oy) {
        for (int ox = 0; ox < plan.ow; ++ox) {
          const std::size_t elem_base =
              static_cast<std::size_t>(oy) * plan.iw + ox;
          std::int64_t acc = plan.biases[static_cast<std::size_t>(r)];
          for (int c = 0; c < plan.cols; ++c) {
            acc += static_cast<std::int64_t>(wrow[c]) *
                   activations[plan.patch_elems[static_cast<std::size_t>(c)] +
                               elem_base];
          }
          out[static_cast<std::size_t>(r) * positions +
              static_cast<std::size_t>(oy) * plan.ow + ox] = acc;
        }
      }
    }
  }
};

}  // namespace

const KernelBackend& scalar_backend() {
  static const ScalarBackend backend;
  return backend;
}

}  // namespace man::backend::detail
