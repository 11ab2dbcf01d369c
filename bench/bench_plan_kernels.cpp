// Grouped plan kernels layer by layer, on the scalar reference and on
// the resolved backend (MAN_BACKEND or CPU detection), each over
// seed-21 weights projected onto ASM 4 {1,3,5,7}:
//   - the SVHN MLP's (8-bit) dense plans, one accumulate_dense_tile
//     call over a staged 16-sample tile;
//   - the LeNet CNN's (12-bit) conv plans, one accumulate_conv_int32
//     call over one sample's staged lane-major multiples.
// Prints per layer the plan's terms, (shift, sign) groups and bytes,
// and µs per call on both backends; exits 1 if any layer's output
// differs from the scalar reference by a single bit.
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

using man::backend::ConvLayerPlan;
using man::backend::DenseLayerPlan;
using man::backend::GroupedPlan;
using man::backend::KernelBackend;
using man::backend::kDenseTile;
using man::util::format_double;

const man::core::AlphabetSet kSet = man::core::AlphabetSet::four();

/// The app's ASM-4 engine over seed-21 weights.
man::engine::FixedNetwork build_engine(man::apps::AppId id) {
  const auto& app = man::apps::get_app(id);
  man::nn::Network net = app.build_network(/*seed=*/21);
  man::nn::ProjectionPlan(app.quant(), kSet, net.num_weight_layers())
      .project_network(net);
  return man::engine::FixedNetwork(
      net, app.quant(),
      man::engine::LayerAlphabetPlan::uniform_asm(net.num_weight_layers(),
                                                  kSet));
}

/// Bytes of every array the ASM kernels read.
std::size_t plan_bytes(const GroupedPlan& plan) {
  return (plan.idx.size() + plan.row_groups.size() +
          plan.group_begin.size()) *
             sizeof(std::uint32_t) +
         (plan.shifts.size() + plan.sign_masks.size() + plan.biases.size()) *
             sizeof(std::int64_t);
}

/// `n` random window inputs through the plan's bank, as int32 bank
/// outputs; input i's lane l lands at slot(i, l).
template <typename Slot>
std::vector<std::int32_t> stage(const GroupedPlan& plan, std::size_t n,
                                std::size_t slots, std::uint64_t seed,
                                Slot slot) {
  const auto k = static_cast<std::size_t>(plan.k);
  const man::core::PrecomputerBank bank(man::core::AlphabetSet::first_n(k));
  man::core::OpCounts discard;
  man::util::Rng rng(seed);
  std::vector<std::int32_t> multiples(slots);
  std::vector<std::int64_t> row(k);
  for (std::size_t i = 0; i < n; ++i) {
    bank.compute_into(rng.next_in(plan.in_min_raw, plan.in_max_raw),
                      row.data(), discard);
    for (std::size_t l = 0; l < k; ++l) {
      multiples[slot(i, l)] = static_cast<std::int32_t>(row[l]);
    }
  }
  return multiples;
}

/// Median µs per `call()` over five timed rounds of enough calls to
/// fill about 20 ms each.
template <typename Call>
double us_per_call(Call call) {
  man::util::Stopwatch probe;
  call();
  const auto calls = static_cast<int>(
      std::clamp(0.02 / std::max(probe.seconds(), 1e-9), 1.0, 1e5));
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    man::util::Stopwatch watch;
    for (int i = 0; i < calls; ++i) call();
    rounds.push_back(watch.seconds() * 1e6 / calls);
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[rounds.size() / 2];
}

/// Per-layer rows of one plan family plus its total row.
class Report {
 public:
  Report(const KernelBackend& scalar, const KernelBackend& kernel)
      : scalar_(scalar),
        kernel_(kernel),
        table_({"Layer", "Terms", "Groups", "Plan bytes", "scalar us",
                std::string(kernel.name()) + " us", "Speedup",
                "Bit-identical"}) {}

  /// Times `run(backend, out)` on both backends into `outputs` slots
  /// and compares the results.
  template <typename Run>
  void add(const std::string& label, const GroupedPlan& plan,
           std::size_t outputs, Run run) {
    std::vector<std::int64_t> expected(outputs);
    std::vector<std::int64_t> got(outputs, -1);
    const double s = us_per_call([&] { run(scalar_, expected.data()); });
    const double k = us_per_call([&] { run(kernel_, got.data()); });
    const bool same = got == expected;
    identical_ = identical_ && same;
    terms_ += plan.idx.size();
    groups_ += plan.shifts.size();
    bytes_ += plan_bytes(plan);
    scalar_us_ += s;
    kernel_us_ += k;
    table_.add_row({label, std::to_string(plan.idx.size()),
                    std::to_string(plan.shifts.size()),
                    std::to_string(plan_bytes(plan)), format_double(s, 1),
                    format_double(k, 1), format_double(s / k, 2),
                    same ? "yes" : "NO"});
  }

  /// Prints the table with its total row; false on any mismatch.
  bool print() {
    table_.add_separator();
    table_.add_row({"total", std::to_string(terms_), std::to_string(groups_),
                    std::to_string(bytes_), format_double(scalar_us_, 1),
                    format_double(kernel_us_, 1),
                    format_double(scalar_us_ / kernel_us_, 2),
                    identical_ ? "yes" : "NO"});
    std::cout << table_.to_string();
    return identical_;
  }

 private:
  const KernelBackend& scalar_;
  const KernelBackend& kernel_;
  man::util::Table table_;
  std::size_t terms_ = 0, groups_ = 0, bytes_ = 0;
  double scalar_us_ = 0.0, kernel_us_ = 0.0;
  bool identical_ = true;
};

}  // namespace

int main() {
  const KernelBackend& scalar =
      man::backend::backend_for(man::backend::BackendKind::kScalar);
  const KernelBackend& kernel = man::backend::resolve();

  man::bench::print_banner(
      "Dense batch tiles: SVHN MLP (8-bit) ASM 4 {1,3,5,7}, " +
      std::to_string(kDenseTile) + "-sample tile, scalar vs " +
      kernel.name());
  const auto svhn = build_engine(man::apps::AppId::kSvhnMlp8);
  Report dense(scalar, kernel);
  for (std::size_t i = 0; i < svhn.plans().size(); ++i) {
    const DenseLayerPlan& plan = svhn.plans()[i];
    const auto k = static_cast<std::size_t>(plan.k);
    // Input c of sample b, lane l: tile[(c·k + l)·kDenseTile + b].
    const auto tile = stage(
        plan, static_cast<std::size_t>(plan.cols) * kDenseTile,
        plan.padded_multiples() * kDenseTile, 900 + i,
        [&](std::size_t n, std::size_t l) {
          return (n / kDenseTile * k + l) * kDenseTile + n % kDenseTile;
        });
    dense.add("L" + std::to_string(i) + " " + std::to_string(plan.cols) +
                  "->" + std::to_string(plan.rows),
              plan, static_cast<std::size_t>(plan.rows) * kDenseTile,
              [&](const KernelBackend& backend, std::int64_t* out) {
                backend.accumulate_dense_tile(plan, tile.data(), out);
              });
  }
  bool identical = dense.print();

  man::bench::print_banner(
      "Conv int32 lanes: LeNet CNN (12-bit) ASM 4 {1,3,5,7}, one sample "
      "per call, scalar vs " +
      std::string(kernel.name()));
  const auto lenet = build_engine(man::apps::AppId::kDigitCnn12);
  Report conv(scalar, kernel);
  for (std::size_t i = 0; i < lenet.conv_plans().size(); ++i) {
    const ConvLayerPlan& plan = lenet.conv_plans()[i];
    const std::size_t elems = plan.input_elems();
    const auto multiples = stage(
        plan, elems, plan.padded_multiples(), 950 + i,
        [&](std::size_t n, std::size_t l) { return l * elems + n; });
    conv.add("L" + std::to_string(i) + " " + std::to_string(plan.ic) + "x" +
                 std::to_string(plan.ih) + "x" + std::to_string(plan.iw) +
                 "->" + std::to_string(plan.oc) + "x" +
                 std::to_string(plan.oh) + "x" + std::to_string(plan.ow),
             plan, static_cast<std::size_t>(plan.oc) * plan.positions(),
             [&](const KernelBackend& backend, std::int64_t* out) {
               backend.accumulate_conv_int32(plan, multiples.data(), out);
             });
  }
  identical = conv.print() && identical;

  if (!identical) {
    std::cerr << "plan kernel outputs diverge from the scalar reference\n";
    return 1;
  }
  return 0;
}
