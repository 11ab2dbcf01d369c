// Randomized property test (seeded RNG) for CSHM staging: over random
// dense/conv geometries at 8- and 12-bit × ASM + exact schemes,
// staging from a PrecomputerCache table over the plan's window and
// staging straight from the bank must produce bit-identical multiples
// buffers laid out exactly as the compiled plans index them, every
// kernel backend must produce bit-identical accumulators from either,
// and the engine's own forward pass — table-staged where a stage's
// inputs lie in the window, bank-staged where it is fed raw
// accumulators — must equal a reference staged from the bank alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "man/backend/kernel_backend.h"
#include "man/core/precomputer_bank.h"
#include "man/engine/fixed_network.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/util/rng.h"

namespace man::engine {
namespace {

using man::backend::all_backends;
using man::backend::BackendKind;
using man::backend::backend_for;
using man::backend::ConvLayerPlan;
using man::backend::DenseLayerPlan;
using man::core::AlphabetSet;
using man::core::OpCounts;
using man::core::PrecomputerBank;
using man::core::PrecomputerCache;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;

std::vector<float> random_pixels(std::size_t n, man::util::Rng& rng) {
  std::vector<float> pixels(n);
  for (float& p : pixels) {
    p = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }
  return pixels;
}

// The engine's first step: pixels quantized to the activation format.
std::vector<std::int64_t> quantize(std::span<const float> pixels,
                                   const QuantSpec& spec) {
  std::vector<std::int64_t> values;
  for (float p : pixels) {
    values.push_back(spec.activation_format.quantize(static_cast<double>(p)));
  }
  return values;
}

// The dense staging layout: k-strided element-major (what the
// engine's stage_multiples produces).
// `row_of(v)` yields the k bank outputs of v.
template <typename RowOf>
std::vector<std::int64_t> stage_dense(const DenseLayerPlan& plan,
                                      std::span<const std::int64_t> values,
                                      RowOf row_of) {
  std::vector<std::int64_t> multiples(plan.padded_multiples(), -1);
  const auto k = static_cast<std::size_t>(plan.k);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto row = row_of(values[i]);
    for (std::size_t l = 0; l < k; ++l) multiples[i * k + l] = row[l];
  }
  return multiples;
}

// The conv staging layout: lane-major (what
// stage_multiples_lane_major produces).
template <typename RowOf>
std::vector<std::int64_t> stage_conv(const ConvLayerPlan& plan,
                                     std::span<const std::int64_t> values,
                                     RowOf row_of) {
  std::vector<std::int64_t> multiples(plan.padded_multiples(), -1);
  const auto k = static_cast<std::size_t>(plan.k);
  const std::size_t stride = values.size();
  for (std::size_t i = 0; i < stride; ++i) {
    const auto row = row_of(values[i]);
    for (std::size_t l = 0; l < k; ++l) multiples[l * stride + i] = row[l];
  }
  return multiples;
}

// Scalar-kernel stage outputs over multiples staged from the bank.
std::vector<std::int64_t> dense_from_bank(const DenseLayerPlan& plan,
                                          const PrecomputerBank& bank,
                                          std::span<const std::int64_t> in) {
  const auto multiples = stage_dense(
      plan, in, [&](std::int64_t v) { return bank.compute(v); });
  std::vector<std::int64_t> out(static_cast<std::size_t>(plan.rows));
  backend_for(BackendKind::kScalar)
      .accumulate_dense(plan, multiples.data(), out.data());
  return out;
}
std::vector<std::int64_t> conv_from_bank(const ConvLayerPlan& plan,
                                         const PrecomputerBank& bank,
                                         std::span<const std::int64_t> in) {
  const auto multiples = stage_conv(
      plan, in, [&](std::int64_t v) { return bank.compute(v); });
  std::vector<std::int64_t> out(static_cast<std::size_t>(plan.oc) *
                                plan.positions());
  backend_for(BackendKind::kScalar)
      .accumulate_conv(plan, multiples.data(), out.data());
  return out;
}

// The engine's forward pass of `pixels` equals `expected` on every
// backend.
void expect_engine_output(const FixedNetwork& engine,
                          std::span<const float> pixels,
                          const std::vector<std::int64_t>& expected) {
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  for (const auto* backend : all_backends()) {
    std::vector<std::int64_t> raw(engine.output_size());
    engine.infer_into(pixels, raw, stats, scratch, *backend);
    EXPECT_EQ(raw, expected) << "backend=" << backend->name();
  }
}

// Table-vs-bank staging + per-backend accumulation for one ASM dense
// engine, then the engine's own staging against the bank reference.
void check_dense_engine(const FixedNetwork& engine, const QuantSpec& spec,
                        const PrecomputerBank& bank, man::util::Rng& rng) {
  ASSERT_EQ(engine.plans().size(), 1u);
  const auto& plan = engine.plans()[0];
  ASSERT_FALSE(plan.exact);
  // The plan carries the staging window of the activation format.
  ASSERT_TRUE(plan.has_input_range());
  EXPECT_EQ(plan.in_min_raw, spec.activation_format.min_raw());
  EXPECT_EQ(plan.in_max_raw, spec.activation_format.max_raw());

  const auto pixels = random_pixels(static_cast<std::size_t>(plan.cols), rng);
  const auto values = quantize(pixels, spec);

  PrecomputerCache table(bank);
  table.configure_range(plan.in_min_raw, plan.in_max_raw);
  OpCounts discard;
  const auto table_multiples = stage_dense(
      plan, values, [&](std::int64_t v) { return table.lookup(v, discard); });
  const auto bank_multiples = stage_dense(
      plan, values, [&](std::int64_t v) { return bank.compute(v); });
  EXPECT_EQ(table_multiples, bank_multiples);

  const auto reference = dense_from_bank(plan, bank, values);
  for (const auto* backend : all_backends()) {
    for (const auto* multiples : {&table_multiples, &bank_multiples}) {
      std::vector<std::int64_t> out(static_cast<std::size_t>(plan.rows));
      backend->accumulate_dense(plan, multiples->data(), out.data());
      EXPECT_EQ(out, reference) << "backend=" << backend->name();
    }
  }
  expect_engine_output(engine, pixels, reference);
}

// Same property for one ASM conv engine (lane-major layout).
void check_conv_engine(const FixedNetwork& engine, const QuantSpec& spec,
                       const PrecomputerBank& bank, man::util::Rng& rng) {
  ASSERT_EQ(engine.conv_plans().size(), 1u);
  const auto& plan = engine.conv_plans()[0];
  ASSERT_FALSE(plan.exact);
  ASSERT_TRUE(plan.has_input_range());
  EXPECT_EQ(plan.in_min_raw, spec.activation_format.min_raw());
  EXPECT_EQ(plan.in_max_raw, spec.activation_format.max_raw());

  const auto pixels = random_pixels(plan.input_elems(), rng);
  const auto values = quantize(pixels, spec);

  PrecomputerCache table(bank);
  table.configure_range(plan.in_min_raw, plan.in_max_raw);
  OpCounts discard;
  const auto table_multiples = stage_conv(
      plan, values, [&](std::int64_t v) { return table.lookup(v, discard); });
  const auto bank_multiples = stage_conv(
      plan, values, [&](std::int64_t v) { return bank.compute(v); });
  EXPECT_EQ(table_multiples, bank_multiples);

  const auto reference = conv_from_bank(plan, bank, values);
  for (const auto* backend : all_backends()) {
    for (const auto* multiples : {&table_multiples, &bank_multiples}) {
      std::vector<std::int64_t> out(reference.size());
      backend->accumulate_conv(plan, multiples->data(), out.data());
      EXPECT_EQ(out, reference) << "backend=" << backend->name();
    }
  }
  expect_engine_output(engine, pixels, reference);
}

// Exact engines do not stage, but their plans carry the window too
// and every backend must agree on the full forward pass.
void check_engine_backends_agree(const FixedNetwork& engine,
                                 man::util::Rng& rng) {
  const auto pixels = random_pixels(engine.input_size(), rng);
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  std::vector<std::int64_t> reference(engine.output_size());
  engine.infer_into(pixels, reference, stats, scratch,
                    backend_for(BackendKind::kScalar));
  expect_engine_output(engine, pixels, reference);
}

class StagingProperty : public ::testing::TestWithParam<int> {};

TEST_P(StagingProperty, RandomDenseGeometries) {
  const QuantSpec spec = QuantSpec::for_bits(GetParam());
  const AlphabetSet set = AlphabetSet::four();
  const PrecomputerBank bank(set);
  man::util::Rng rng(900 + static_cast<std::uint64_t>(GetParam()));

  for (int trial = 0; trial < 6; ++trial) {
    const int in = static_cast<int>(rng.next_in(4, 40));
    const int out = static_cast<int>(rng.next_in(1, 12));
    Network net;
    net.add<man::nn::Dense>(in, out).init_xavier(rng);
    const ProjectionPlan projection(spec, set, 1);
    projection.project_network(net);

    FixedNetwork asm_engine(net, spec, LayerAlphabetPlan::uniform_asm(1, set));
    check_dense_engine(asm_engine, spec, bank, rng);

    FixedNetwork exact_engine(net, spec, LayerAlphabetPlan::conventional(1));
    ASSERT_TRUE(exact_engine.plans()[0].exact);
    EXPECT_TRUE(exact_engine.plans()[0].has_input_range());
    check_engine_backends_agree(exact_engine, rng);
  }
}

TEST_P(StagingProperty, RandomConvGeometries) {
  const QuantSpec spec = QuantSpec::for_bits(GetParam());
  const AlphabetSet set = AlphabetSet::four();
  const PrecomputerBank bank(set);
  man::util::Rng rng(7100 + static_cast<std::uint64_t>(GetParam()));

  for (int trial = 0; trial < 6; ++trial) {
    const int ic = static_cast<int>(rng.next_in(1, 3));
    const int oc = static_cast<int>(rng.next_in(1, 4));
    const int kernel = static_cast<int>(rng.next_in(2, 3));
    const int ih = static_cast<int>(rng.next_in(kernel, 8));
    const int iw = static_cast<int>(rng.next_in(kernel, 8));
    Network net;
    net.add<man::nn::Conv2D>(ic, oc, kernel, ih, iw).init_xavier(rng);
    const ProjectionPlan projection(spec, set, 1);
    projection.project_network(net);

    FixedNetwork asm_engine(net, spec, LayerAlphabetPlan::uniform_asm(1, set));
    check_conv_engine(asm_engine, spec, bank, rng);

    FixedNetwork exact_engine(net, spec, LayerAlphabetPlan::conventional(1));
    ASSERT_TRUE(exact_engine.conv_plans()[0].exact);
    EXPECT_TRUE(exact_engine.conv_plans()[0].has_input_range());
    check_engine_backends_agree(exact_engine, rng);
  }
}

// A synapse stage fed raw accumulators (no LUT in front of it) has
// inputs outside the staging window, so it stages straight from its
// bank: Dense → Dense and Conv → Dense engines match a reference that
// stages every stage from the bank.
TEST_P(StagingProperty, RawFedStagesStageFromTheBank) {
  const QuantSpec spec = QuantSpec::for_bits(GetParam());
  const AlphabetSet set = AlphabetSet::four();
  const PrecomputerBank bank(set);
  man::util::Rng rng(5300 + static_cast<std::uint64_t>(GetParam()));

  for (int trial = 0; trial < 4; ++trial) {
    const int in = static_cast<int>(rng.next_in(4, 24));
    const int hidden = static_cast<int>(rng.next_in(2, 10));
    const int out = static_cast<int>(rng.next_in(1, 6));
    Network mlp;
    mlp.add<man::nn::Dense>(in, hidden).init_xavier(rng);
    mlp.add<man::nn::Dense>(hidden, out).init_xavier(rng);
    ProjectionPlan(spec, set, 2).project_network(mlp);
    const FixedNetwork dense_dense(mlp, spec,
                                   LayerAlphabetPlan::uniform_asm(2, set));
    const auto pixels = random_pixels(dense_dense.input_size(), rng);
    const auto hidden_raw =
        dense_from_bank(dense_dense.plans()[0], bank, quantize(pixels, spec));
    expect_engine_output(
        dense_dense, pixels,
        dense_from_bank(dense_dense.plans()[1], bank, hidden_raw));

    const int oc = static_cast<int>(rng.next_in(1, 3));
    Network cnn;
    cnn.add<man::nn::Conv2D>(1, oc, 3, 6, 6).init_xavier(rng);
    cnn.add<man::nn::Dense>(oc * 16, out).init_xavier(rng);
    ProjectionPlan(spec, set, 2).project_network(cnn);
    const FixedNetwork conv_dense(cnn, spec,
                                  LayerAlphabetPlan::uniform_asm(2, set));
    const auto image = random_pixels(conv_dense.input_size(), rng);
    const auto conv_raw =
        conv_from_bank(conv_dense.conv_plans()[0], bank, quantize(image, spec));
    expect_engine_output(
        conv_dense, image,
        dense_from_bank(conv_dense.plans()[0], bank, conv_raw));
  }
}

INSTANTIATE_TEST_SUITE_P(PaperWidths, StagingProperty,
                         ::testing::Values(8, 12));

}  // namespace
}  // namespace man::engine
