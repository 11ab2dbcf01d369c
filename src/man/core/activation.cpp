#include "man/core/activation.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace man::core {

double activate(ActivationKind kind, double x) noexcept {
  switch (kind) {
    case ActivationKind::kIdentity:
      return x;
    case ActivationKind::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
    case ActivationKind::kTanh:
      return std::tanh(x);
    case ActivationKind::kRelu:
      return x > 0.0 ? x : 0.0;
  }
  return x;
}

double activate_derivative_from_output(ActivationKind kind,
                                       double y) noexcept {
  switch (kind) {
    case ActivationKind::kIdentity:
      return 1.0;
    case ActivationKind::kSigmoid:
      return y * (1.0 - y);
    case ActivationKind::kTanh:
      return 1.0 - y * y;
    case ActivationKind::kRelu:
      return y > 0.0 ? 1.0 : 0.0;
  }
  return 1.0;
}

std::string to_string(ActivationKind kind) {
  switch (kind) {
    case ActivationKind::kIdentity: return "identity";
    case ActivationKind::kSigmoid: return "sigmoid";
    case ActivationKind::kTanh: return "tanh";
    case ActivationKind::kRelu: return "relu";
  }
  return "?";
}

FixedActivationLut::FixedActivationLut(ActivationKind kind,
                                       man::fixed::QFormat input_format,
                                       man::fixed::QFormat output_format,
                                       int address_bits, double clip)
    : kind_(kind),
      input_format_(input_format),
      output_format_(output_format),
      clip_(clip) {
  const std::size_t entries = std::size_t{1} << address_bits;
  table_.resize(entries);
  // Entry i covers the input value lerp(-clip, +clip, i/(entries-1)).
  for (std::size_t i = 0; i < entries; ++i) {
    const double x = -clip_ + (2.0 * clip_) * static_cast<double>(i) /
                                  static_cast<double>(entries - 1);
    table_[i] = output_format_.quantize(activate(kind_, x));
  }
  if (!build_integer_path()) {
    throw std::invalid_argument(
        "FixedActivationLut: integer address path not provable for clip " +
        std::to_string(clip_) + " over " + input_format_.to_string() +
        " with " + std::to_string(address_bits) + " address bits");
  }
}

bool FixedActivationLut::build_integer_path() {
  // The double path computes
  //   index = lround(((clamp(raw·2^-f, -clip, clip) + clip) / 2clip)
  //                  · (N-1))
  // Every step is exact in double — and therefore reproducible as
  // integer arithmetic — when:
  //  * C = clip·2^f is a positive power-of-two integer (the raw-domain
  //    clamp edges are exact and the /2clip division only shifts the
  //    exponent),
  //  * log2(2C) + address_bits ≤ 53 (position·(N-1) keeps every
  //    significant bit; the int64 product then also has ≤ 62 bits).
  // Then for raw ∈ (-C, C)
  //   index = floor(((raw + C)·(N-1) + C) / 2C)
  //         = ((raw + C)·(N-1) + C) >> log2(2C)   (numerator > 0)
  // matches lround's round-half-up bit for bit, and raw ≤ -C / ≥ +C
  // land on the table edges. The derivation is additionally
  // probe-verified at every bucket seam ±1 and the clamp edges.
  if (table_.size() < 2) return false;
  if (!(clip_ > 0.0) || !std::isfinite(clip_)) return false;
  const double scaled_clip =
      std::ldexp(clip_, input_format_.frac_bits());
  if (scaled_clip < 1.0 || scaled_clip > std::ldexp(1.0, 51) ||
      scaled_clip != std::floor(scaled_clip)) {
    return false;
  }
  const auto clip_raw = static_cast<std::int64_t>(scaled_clip);
  if ((clip_raw & (clip_raw - 1)) != 0) return false;  // not a power of two
  int clip_log2 = 0;
  while ((std::int64_t{1} << clip_log2) < clip_raw) ++clip_log2;
  int address_bits = 0;
  while ((std::size_t{1} << address_bits) < table_.size()) ++address_bits;
  if (clip_log2 + 1 + address_bits > 53) return false;

  clip_raw_ = clip_raw;
  index_shift_ = clip_log2 + 1;
  index_scale_ = static_cast<std::int64_t>(table_.size()) - 1;

  // Probe the seams: the raw value where lround tips from bucket
  // i-1 to i is near ((2i-1)·C)/(N-1) - C; check ±1 around each, the
  // clamp edges ±2, and the origin.
  const auto agrees = [this](std::int64_t raw) {
    return apply_raw(raw) == apply_raw_reference(raw);
  };
  bool verified = true;
  for (std::int64_t delta = -2; verified && delta <= 2; ++delta) {
    verified = agrees(-clip_raw_ + delta) && agrees(clip_raw_ + delta) &&
               agrees(delta);
  }
  for (std::int64_t i = 1; verified && i <= index_scale_; ++i) {
    const auto seam = static_cast<std::int64_t>(
        std::llround(static_cast<double>((2 * i - 1) * clip_raw_) /
                         static_cast<double>(index_scale_) -
                     static_cast<double>(clip_raw_)));
    verified = agrees(seam - 1) && agrees(seam) && agrees(seam + 1);
  }
  return verified;
}

std::int32_t FixedActivationLut::apply_raw_reference(
    std::int64_t accumulator_raw) const noexcept {
  const double x = static_cast<double>(accumulator_raw) *
                   input_format_.resolution();
  const double clipped = std::clamp(x, -clip_, clip_);
  const double position = (clipped + clip_) / (2.0 * clip_);
  const auto index = static_cast<std::size_t>(
      std::lround(position * static_cast<double>(table_.size() - 1)));
  return table_[std::min(index, table_.size() - 1)];
}

double FixedActivationLut::apply(double x) const noexcept {
  const std::int64_t raw =
      static_cast<std::int64_t>(std::llround(x / input_format_.resolution()));
  return output_format_.dequantize(apply_raw(raw));
}

}  // namespace man::core
