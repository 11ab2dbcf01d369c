// The test-side oracle of the fixed-point engine: a float network's
// forward pass in plain int64 arithmetic, sharing nothing with the
// engine but the number formats, the weight constraint and the
// activation LUT's reference path. No plan, bank, table or kernel
// backend runs here.
//
// A synapse layer computes bias + Σ c(q(w)) · x per output, where q
// quantizes to the weight format and c constrains to the layer's
// alphabet set. A conventional layer skips c, so it multiplies its
// quantized weights exactly; the engine runs it as an ASM layer over
// the full set, and agreeing with the oracle is what shows that the
// full set loses nothing. Biases sit at product scale, rounded half
// away from zero. A pool rounds its window's average half away from
// zero; an activation is FixedActivationLut::apply_raw_reference().
#ifndef MAN_TESTS_ENGINE_ORACLE_H
#define MAN_TESTS_ENGINE_ORACLE_H

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "man/core/activation.h"
#include "man/core/quartet.h"
#include "man/core/weight_constraint.h"
#include "man/engine/layer_alphabet_plan.h"
#include "man/nn/activation_layer.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/nn/network.h"
#include "man/nn/pool.h"
#include "man/nn/quantize.h"

namespace man::engine::oracle {

/// One synapse layer's integer weights and product-scale biases.
struct IntLayer {
  std::vector<std::int64_t> weights;
  std::vector<std::int64_t> biases;
};

inline IntLayer int_layer(std::span<const float> weights,
                          std::span<const float> biases,
                          const man::nn::QuantSpec& spec,
                          const LayerScheme& scheme) {
  const auto& wfmt = spec.weight_format;
  const bool exact = scheme.multiplier == man::core::MultiplierKind::kExact;
  const man::core::WeightConstraint constraint(
      man::core::QuartetLayout(wfmt.total_bits()),
      scheme.effective_alphabets());
  IntLayer out;
  for (const float w : weights) {
    const int raw = wfmt.quantize(static_cast<double>(w));
    out.weights.push_back(exact ? raw : constraint.constrain(raw));
  }
  const double scale = std::ldexp(
      1.0, wfmt.frac_bits() + spec.activation_format.frac_bits());
  for (const float b : biases) {
    const double scaled = static_cast<double>(b) * scale;
    out.biases.push_back(
        static_cast<std::int64_t>(scaled >= 0 ? scaled + 0.5 : scaled - 0.5));
  }
  return out;
}

/// One sample through `net` under `spec` and `plan` (one scheme per
/// synapse layer): the final layer's raw accumulators. Counts into
/// `negative_halves`, when given, the pool sums that are negative and
/// exactly half-way between two averages — where rounding half away
/// from zero differs from an arithmetic shift.
inline std::vector<std::int64_t> forward(
    man::nn::Network& net, const man::nn::QuantSpec& spec,
    const LayerAlphabetPlan& plan, std::span<const float> pixels,
    std::size_t* negative_halves = nullptr) {
  const auto& afmt = spec.activation_format;
  const man::fixed::QFormat acc_format(
      30, spec.weight_format.frac_bits() + afmt.frac_bits());
  std::vector<std::int64_t> x;
  for (const float p : pixels) {
    x.push_back(afmt.quantize(static_cast<double>(p)));
  }
  std::size_t synapse = 0;
  for (std::size_t li = 0; li < net.num_layers(); ++li) {
    man::nn::Layer& layer = net.layer(li);
    std::vector<std::int64_t> y;
    if (auto* dense = dynamic_cast<man::nn::Dense*>(&layer)) {
      const IntLayer q = int_layer(dense->weights(), dense->biases(), spec,
                                   plan.scheme(synapse++));
      const auto in = static_cast<std::size_t>(dense->in_features());
      for (std::size_t o = 0; o < q.biases.size(); ++o) {
        std::int64_t acc = q.biases[o];
        for (std::size_t i = 0; i < in; ++i) {
          acc += q.weights[o * in + i] * x.at(i);
        }
        y.push_back(acc);
      }
    } else if (auto* conv = dynamic_cast<man::nn::Conv2D*>(&layer)) {
      const IntLayer q = int_layer(conv->weights(), conv->biases(), spec,
                                   plan.scheme(synapse++));
      const int k = conv->kernel();
      const int ic = conv->in_channels();
      const int ih = conv->in_height();
      const int iw = conv->in_width();
      for (int oc = 0; oc < conv->out_channels(); ++oc) {
        for (int oy = 0; oy < conv->out_height(); ++oy) {
          for (int ox = 0; ox < conv->out_width(); ++ox) {
            std::int64_t acc = q.biases[static_cast<std::size_t>(oc)];
            for (int c = 0; c < ic; ++c) {
              for (int ky = 0; ky < k; ++ky) {
                for (int kx = 0; kx < k; ++kx) {
                  acc += q.weights[static_cast<std::size_t>(
                             ((oc * ic + c) * k + ky) * k + kx)] *
                         x.at(static_cast<std::size_t>(
                             (c * ih + oy + ky) * iw + ox + kx));
                }
              }
            }
            y.push_back(acc);
          }
        }
      }
    } else if (auto* pool = dynamic_cast<man::nn::AvgPool2D*>(&layer)) {
      const int w = pool->window();
      const std::int64_t n = w * w;
      for (int c = 0; c < pool->channels(); ++c) {
        for (int oy = 0; oy < pool->out_height(); ++oy) {
          for (int ox = 0; ox < pool->out_width(); ++ox) {
            std::int64_t sum = 0;
            for (int wy = 0; wy < w; ++wy) {
              for (int wx = 0; wx < w; ++wx) {
                sum += x.at(static_cast<std::size_t>(
                    (c * pool->in_height() + oy * w + wy) * pool->in_width() +
                    ox * w + wx));
              }
            }
            if (negative_halves != nullptr && sum < 0 && n % 2 == 0 &&
                (-sum) % n == n / 2) {
              ++*negative_halves;
            }
            y.push_back(sum >= 0 ? (sum + n / 2) / n : -((-sum + n / 2) / n));
          }
        }
      }
    } else if (auto* act = dynamic_cast<man::nn::ActivationLayer*>(&layer)) {
      const man::core::FixedActivationLut lut(act->kind(), acc_format, afmt);
      for (const std::int64_t v : x) y.push_back(lut.apply_raw_reference(v));
    } else {
      throw std::invalid_argument("oracle: unsupported layer " + layer.name());
    }
    x = std::move(y);
  }
  return x;
}

/// forward() over `pixels.size() / input` contiguous samples, their
/// outputs concatenated.
inline std::vector<std::int64_t> forward_batch(
    man::nn::Network& net, const man::nn::QuantSpec& spec,
    const LayerAlphabetPlan& plan, std::span<const float> pixels,
    std::size_t input, std::size_t* negative_halves = nullptr) {
  std::vector<std::int64_t> out;
  for (std::size_t s = 0; s + input <= pixels.size(); s += input) {
    const auto raw =
        forward(net, spec, plan, pixels.subspan(s, input), negative_halves);
    out.insert(out.end(), raw.begin(), raw.end());
  }
  return out;
}

}  // namespace man::engine::oracle

#endif  // MAN_TESTS_ENGINE_ORACLE_H
