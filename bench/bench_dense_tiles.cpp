// Dense batch-tile kernels layer by layer: the SVHN MLP (8-bit, ASM 4
// {1,3,5,7}, seed-21 weights projected onto the alphabet set) compiled
// to grouped dense plans, and each layer's accumulate_dense_tile timed
// on the scalar reference and on the resolved backend (MAN_BACKEND or
// CPU detection) over one staged 16-sample tile. Prints per layer the
// plan's terms, (shift, sign) groups and bytes, and µs per tile on
// both backends; exits 1 if any layer's output differs from the scalar
// reference by a single bit.
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "man/backend/kernel_backend.h"
#include "man/core/precomputer_bank.h"
#include "man/nn/constraint_projection.h"
#include "man/util/rng.h"

namespace {

using man::backend::DenseLayerPlan;
using man::backend::KernelBackend;
using man::backend::kDenseTile;
using man::util::format_double;

/// Bytes of every array the tile kernels read.
std::size_t plan_bytes(const DenseLayerPlan& plan) {
  return (plan.idx.size() + plan.row_groups.size() +
          plan.group_begin.size()) *
             sizeof(std::uint32_t) +
         (plan.shifts.size() + plan.sign_masks.size() + plan.biases.size()) *
             sizeof(std::int64_t);
}

/// kDenseTile samples of random window inputs through the layer's
/// bank, staged sample-minor in int32 lanes.
std::vector<std::int32_t> stage_tile(const DenseLayerPlan& plan,
                                     std::uint64_t seed) {
  const auto k = static_cast<std::size_t>(plan.k);
  const man::core::PrecomputerBank bank(man::core::AlphabetSet::first_n(k));
  man::core::OpCounts discard;
  man::util::Rng rng(seed);
  std::vector<std::int32_t> tile(plan.padded_multiples() * kDenseTile);
  std::vector<std::int64_t> row(k);
  for (int c = 0; c < plan.cols; ++c) {
    for (std::size_t b = 0; b < kDenseTile; ++b) {
      bank.compute_into(rng.next_in(plan.in_min_raw, plan.in_max_raw),
                        row.data(), discard);
      for (std::size_t l = 0; l < k; ++l) {
        tile[(static_cast<std::size_t>(c) * k + l) * kDenseTile + b] =
            static_cast<std::int32_t>(row[l]);
      }
    }
  }
  return tile;
}

/// Median µs per accumulate_dense_tile call over five timed rounds of
/// enough calls to fill about 20 ms each.
double us_per_tile(const KernelBackend& kernel, const DenseLayerPlan& plan,
                   const std::vector<std::int32_t>& tile,
                   std::vector<std::int64_t>& out) {
  man::util::Stopwatch probe;
  kernel.accumulate_dense_tile(plan, tile.data(), out.data());
  const auto calls = static_cast<int>(
      std::clamp(0.02 / std::max(probe.seconds(), 1e-9), 1.0, 1e5));
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    man::util::Stopwatch watch;
    for (int i = 0; i < calls; ++i) {
      kernel.accumulate_dense_tile(plan, tile.data(), out.data());
    }
    rounds.push_back(watch.seconds() * 1e6 / calls);
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[rounds.size() / 2];
}

}  // namespace

int main() {
  const auto& app = man::apps::get_app(man::apps::AppId::kSvhnMlp8);
  man::nn::Network net = app.build_network(/*seed=*/21);
  const man::core::AlphabetSet set = man::core::AlphabetSet::four();
  man::nn::ProjectionPlan(app.quant(), set, net.num_weight_layers())
      .project_network(net);
  const man::engine::FixedNetwork engine(
      net, app.quant(),
      man::engine::LayerAlphabetPlan::uniform_asm(net.num_weight_layers(),
                                                  set));

  const KernelBackend& scalar =
      man::backend::backend_for(man::backend::BackendKind::kScalar);
  const KernelBackend& kernel = man::backend::resolve();
  man::bench::print_banner(
      "Dense batch tiles: SVHN MLP (8-bit) ASM 4 {1,3,5,7}, " +
      std::to_string(kDenseTile) + "-sample tile, scalar vs " +
      kernel.name());
  man::util::Table table({"Layer", "Terms", "Groups", "Plan bytes",
                          "scalar us/tile", std::string(kernel.name()) +
                                                " us/tile",
                          "Speedup", "Bit-identical"});
  std::size_t terms = 0, groups = 0, bytes = 0;
  double scalar_us = 0.0, kernel_us = 0.0;
  bool identical = true;
  for (std::size_t i = 0; i < engine.plans().size(); ++i) {
    const DenseLayerPlan& plan = engine.plans()[i];
    const auto tile = stage_tile(plan, 900 + i);
    const std::size_t outputs =
        static_cast<std::size_t>(plan.rows) * kDenseTile;
    std::vector<std::int64_t> expected(outputs);
    std::vector<std::int64_t> got(outputs, -1);
    const double s = us_per_tile(scalar, plan, tile, expected);
    const double k = us_per_tile(kernel, plan, tile, got);
    const bool same = got == expected;
    identical = identical && same;
    terms += plan.idx.size();
    groups += plan.shifts.size();
    bytes += plan_bytes(plan);
    scalar_us += s;
    kernel_us += k;
    table.add_row({"L" + std::to_string(i) + " " + std::to_string(plan.cols) +
                       "->" + std::to_string(plan.rows),
                   std::to_string(plan.idx.size()),
                   std::to_string(plan.shifts.size()),
                   std::to_string(plan_bytes(plan)), format_double(s, 1),
                   format_double(k, 1), format_double(s / k, 2),
                   same ? "yes" : "NO"});
  }
  table.add_separator();
  table.add_row({"total", std::to_string(terms), std::to_string(groups),
                 std::to_string(bytes), format_double(scalar_us, 1),
                 format_double(kernel_us, 1),
                 format_double(scalar_us / kernel_us, 2),
                 identical ? "yes" : "NO"});
  std::cout << table.to_string();
  if (!identical) {
    std::cerr << "dense tile outputs diverge from the scalar reference\n";
    return 1;
  }
  return 0;
}
