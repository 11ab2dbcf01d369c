// Grouped plan kernels layer by layer, on the scalar reference and on
// every vector tier this CPU runs (blocked, simd when AVX2 is live,
// avx512 when AVX-512F/VL is; plus the resolved backend when MAN_BACKEND
// caps one that is not live at its own tier), under two schemes over
// seed-21 weights: ASM 4 {1,3,5,7} (weights projected onto it) and the
// conventional multiplier (unprojected weights, compiled over the full
// set {1,3,…,15}: 8 bank lanes and alphabets up to 15 in the row
// bounds). Per scheme:
//   - the SVHN MLP's (8-bit) dense plans, one accumulate_dense_tile
//     call over a staged 16-sample tile (plans that fit int32 lanes,
//     as the engine tiles them);
//   - the same plans, one accumulate_dense call over one sample's
//     staged int64 multiples (the per-sample kernel: a gather on
//     avx512, the portable group loop below it);
//   - the LeNet CNN's (12-bit) conv plans, one accumulate_conv_int32
//     or accumulate_conv call over one sample's staged lane-major
//     multiples, on the lane width the engine gives the layer (named
//     in its label).
// Prints per layer the plan's terms, (shift, sign) groups and bytes,
// and µs per call on each backend; exits 1 if any layer's output
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

using man::backend::BackendKind;
using man::backend::ConvLayerPlan;
using man::backend::DenseLayerPlan;
using man::backend::GroupedPlan;
using man::backend::KernelBackend;
using man::backend::kDenseTile;
using man::util::format_double;

const man::core::AlphabetSet kSet = man::core::AlphabetSet::four();

/// The app's engine over seed-21 weights: ASM 4 over weights projected
/// onto it, or the conventional baseline over the weights as built.
man::engine::FixedNetwork build_engine(man::apps::AppId id,
                                       bool conventional) {
  const auto& app = man::apps::get_app(id);
  man::nn::Network net = app.build_network(/*seed=*/21);
  const std::size_t layers = net.num_weight_layers();
  if (conventional) {
    return man::engine::FixedNetwork(
        net, app.quant(), man::engine::LayerAlphabetPlan::conventional(layers));
  }
  man::nn::ProjectionPlan(app.quant(), kSet, layers).project_network(net);
  return man::engine::FixedNetwork(
      net, app.quant(),
      man::engine::LayerAlphabetPlan::uniform_asm(layers, kSet));
}

/// Bytes of every array the ASM kernels read.
std::size_t plan_bytes(const GroupedPlan& plan) {
  return (plan.idx.size() + plan.row_groups.size() +
          plan.group_begin.size()) *
             sizeof(std::uint32_t) +
         (plan.shifts.size() + plan.sign_masks.size() + plan.biases.size()) *
             sizeof(std::int64_t);
}

/// `n` random window inputs through the plan's bank, as `Value` bank
/// outputs; input i's lane l lands at slot(i, l).
template <typename Value = std::int32_t, typename Slot>
std::vector<Value> stage(const GroupedPlan& plan, std::size_t n,
                         std::size_t slots, std::uint64_t seed, Slot slot) {
  const auto k = static_cast<std::size_t>(plan.k);
  const man::core::PrecomputerBank bank(man::core::AlphabetSet::first_n(k));
  man::core::OpCounts discard;
  man::util::Rng rng(seed);
  std::vector<Value> multiples(slots);
  std::vector<std::int64_t> row(k);
  for (std::size_t i = 0; i < n; ++i) {
    bank.compute_into(rng.next_in(plan.in_min_raw, plan.in_max_raw),
                      row.data(), discard);
    for (std::size_t l = 0; l < k; ++l) {
      multiples[slot(i, l)] = static_cast<Value>(row[l]);
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

/// "L<i> <cols>-><rows>" for dense plan i.
std::string dense_label(std::size_t i, const DenseLayerPlan& plan) {
  return "L" + std::to_string(i) + " " + std::to_string(plan.cols) + "->" +
         std::to_string(plan.rows);
}

/// Per-layer rows of one plan family plus its total row: µs per call
/// on every backend, the first of which is the scalar reference.
class Report {
 public:
  explicit Report(const std::vector<const KernelBackend*>& backends)
      : backends_(backends),
        us_(backends.size()),
        table_(header(backends)) {}

  /// Times `run(backend, out)` on every backend into `outputs` slots
  /// and compares each result with the reference's.
  template <typename Run>
  void add(const std::string& label, const GroupedPlan& plan,
           std::size_t outputs, Run run) {
    std::vector<std::string> row = {label, std::to_string(plan.idx.size()),
                                    std::to_string(plan.shifts.size()),
                                    std::to_string(plan_bytes(plan))};
    std::vector<std::int64_t> expected(outputs);
    bool same = true;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      std::vector<std::int64_t> got(outputs, -1);
      std::int64_t* out = i == 0 ? expected.data() : got.data();
      const double us = us_per_call([&] { run(*backends_[i], out); });
      same = same && (i == 0 || got == expected);
      us_[i] += us;
      row.push_back(format_double(us, 1));
    }
    row.push_back(same ? "yes" : "NO");
    identical_ = identical_ && same;
    terms_ += plan.idx.size();
    groups_ += plan.shifts.size();
    bytes_ += plan_bytes(plan);
    table_.add_row(row);
  }

  /// Prints the table with its total row; false on any mismatch.
  bool print() {
    std::vector<std::string> row = {"total", std::to_string(terms_),
                                    std::to_string(groups_),
                                    std::to_string(bytes_)};
    for (const double us : us_) row.push_back(format_double(us, 1));
    row.push_back(identical_ ? "yes" : "NO");
    table_.add_separator();
    table_.add_row(row);
    std::cout << table_.to_string();
    return identical_;
  }

 private:
  static std::vector<std::string> header(
      const std::vector<const KernelBackend*>& backends) {
    std::vector<std::string> columns = {"Layer", "Terms", "Groups",
                                        "Plan bytes"};
    for (const KernelBackend* backend : backends) {
      columns.push_back(std::string(backend->name()) + " us");
    }
    columns.push_back("Bit-identical");
    return columns;
  }

  std::vector<const KernelBackend*> backends_;
  std::vector<double> us_;
  man::util::Table table_;
  std::size_t terms_ = 0, groups_ = 0, bytes_ = 0;
  bool identical_ = true;
};

/// The scalar reference, then every backend whose capped tier is live
/// on this CPU, then the resolved backend if it is not among them.
std::vector<const KernelBackend*> timed_backends() {
  const KernelBackend& resolved = man::backend::resolve();
  const BackendKind best = man::backend::detect_best_backend();
  std::vector<const KernelBackend*> backends;
  for (const KernelBackend* backend : man::backend::all_backends()) {
    if (backend->kind() <= best || backend == &resolved) {
      backends.push_back(backend);
    }
  }
  return backends;
}

/// "scalar vs blocked, simd, avx512" for a banner.
std::string versus(const std::vector<const KernelBackend*>& backends) {
  std::string text = backends[0]->name();
  for (std::size_t i = 1; i < backends.size(); ++i) {
    text += (i == 1 ? " vs " : ", ") + std::string(backends[i]->name());
  }
  return text;
}

/// The three tables of one scheme; false on any mismatch.
bool report_scheme(bool conventional,
                   const std::vector<const KernelBackend*>& backends) {
  const std::string scheme =
      conventional ? "conventional (full set, k = 8)" : "ASM 4 {1,3,5,7}";
  man::bench::print_banner("Dense batch tiles: SVHN MLP (8-bit) " + scheme +
                           ", " + std::to_string(kDenseTile) +
                           "-sample tile, " + versus(backends));
  const auto svhn = build_engine(man::apps::AppId::kSvhnMlp8, conventional);
  Report dense(backends);
  for (std::size_t i = 0; i < svhn.plans().size(); ++i) {
    const DenseLayerPlan& plan = svhn.plans()[i];
    const auto k = static_cast<std::size_t>(plan.k);
    if (man::backend::int32_row_bound(
            plan, man::core::AlphabetSet::first_n(k).alphabets()) >=
        man::backend::kInt32RowOverflow) {
      std::cout << dense_label(i, plan) << " does not fit int32 lanes\n";
      continue;
    }
    // Input c of sample b, lane l: tile[(c·k + l)·kDenseTile + b].
    const auto tile = stage(
        plan, static_cast<std::size_t>(plan.cols) * kDenseTile,
        plan.padded_multiples() * kDenseTile, 900 + i,
        [&](std::size_t n, std::size_t l) {
          return (n / kDenseTile * k + l) * kDenseTile + n % kDenseTile;
        });
    dense.add(dense_label(i, plan), plan,
              static_cast<std::size_t>(plan.rows) * kDenseTile,
              [&](const KernelBackend& backend, std::int64_t* out) {
                backend.accumulate_dense_tile(plan, tile.data(), out);
              });
  }
  bool identical = dense.print();

  man::bench::print_banner("Dense per sample: SVHN MLP (8-bit) " + scheme +
                           ", one sample per call, " + versus(backends));
  Report sample(backends);
  for (std::size_t i = 0; i < svhn.plans().size(); ++i) {
    const DenseLayerPlan& plan = svhn.plans()[i];
    const auto k = static_cast<std::size_t>(plan.k);
    // Input c, lane l: multiples[c·k + l].
    const auto multiples = stage<std::int64_t>(
        plan, static_cast<std::size_t>(plan.cols), plan.padded_multiples(),
        925 + i, [&](std::size_t n, std::size_t l) { return n * k + l; });
    sample.add(dense_label(i, plan), plan,
               static_cast<std::size_t>(plan.rows),
               [&](const KernelBackend& backend, std::int64_t* out) {
                 backend.accumulate_dense(plan, multiples.data(), out);
               });
  }
  identical = sample.print() && identical;

  man::bench::print_banner("Conv: LeNet CNN (12-bit) " + scheme +
                           ", one sample per call, " + versus(backends));
  const auto lenet = build_engine(man::apps::AppId::kDigitCnn12, conventional);
  Report conv(backends);
  for (std::size_t i = 0; i < lenet.conv_plans().size(); ++i) {
    const ConvLayerPlan& plan = lenet.conv_plans()[i];
    const std::size_t elems = plan.input_elems();
    const auto slot = [&](std::size_t n, std::size_t l) {
      return l * elems + n;
    };
    const bool int32_lanes = lenet.conv_int32_lanes(i);
    const std::string label =
        "L" + std::to_string(i) + " " + std::to_string(plan.ic) + "x" +
        std::to_string(plan.ih) + "x" + std::to_string(plan.iw) + "->" +
        std::to_string(plan.oc) + "x" + std::to_string(plan.oh) + "x" +
        std::to_string(plan.ow) + (int32_lanes ? " int32" : " int64");
    const std::size_t outputs =
        static_cast<std::size_t>(plan.oc) * plan.positions();
    if (int32_lanes) {
      const auto multiples =
          stage(plan, elems, plan.padded_multiples(), 950 + i, slot);
      conv.add(label, plan, outputs,
               [&](const KernelBackend& backend, std::int64_t* out) {
                 backend.accumulate_conv_int32(plan, multiples.data(), out);
               });
    } else {
      const auto multiples = stage<std::int64_t>(
          plan, elems, plan.padded_multiples(), 950 + i, slot);
      conv.add(label, plan, outputs,
               [&](const KernelBackend& backend, std::int64_t* out) {
                 backend.accumulate_conv(plan, multiples.data(), out);
               });
    }
  }
  return conv.print() && identical;
}

}  // namespace

int main() {
  const auto backends = timed_backends();
  bool identical = true;
  for (const bool conventional : {false, true}) {
    identical = report_scheme(conventional, backends) && identical;
  }
  if (!identical) {
    std::cerr << "plan kernel outputs diverge from the scalar reference\n";
    return 1;
  }
  return 0;
}
