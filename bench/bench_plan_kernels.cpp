// Grouped plan kernels layer by layer, on the scalar reference and on
// every vector tier this CPU runs (blocked, simd when AVX2 is live,
// avx512 when AVX-512F/VL/BW is; plus the resolved backend when MAN_BACKEND
// caps one that is not live at its own tier), under two schemes over
// seed-21 weights: ASM 4 {1,3,5,7} (weights projected onto it) and the
// conventional multiplier (unprojected weights, compiled over the full
// set {1,3,…,15}: 8 bank lanes and alphabets up to 15 in the row
// bounds). Per scheme:
//   - the SVHN MLP's (8-bit) dense plans, one accumulate_dense_tile
//     call over a staged 32-sample int16 tile of inputs (plans that
//     pass the int32 row and int16 chunk proofs, as the engine tiles
//     them), with the tile's size;
//   - the same plans, one accumulate_dense call over one sample's
//     staged int64 multiples (the per-sample kernel: a gather on the
//     AVX-512 tier, the scalar reference's walk on every other);
//   - the SVHN MLP's tile boundaries, the epilogue sweeps around those
//     kernels: a 32-sample tile's pixels quantized and staged into the
//     first plan's tile (stage_pixels_tile), and each hidden layer's
//     tile accumulators through its tanh LUT into the next plan's tile
//     (lut_stage_tile), on the engine's route: the backend's sweep, or
//     the reference templates of epilogue_sweep.h where it declines
//     (the scalar column runs the templates directly);
//   - the LeNet CNN's (12-bit) conv plans, one accumulate_conv_int32
//     or accumulate_conv call over one sample's staged lane-major
//     multiples, on the lane width the engine gives the layer (named
//     in its label; int64 lanes run the scalar reference everywhere).
// Prints per layer the plan's terms, groups and bytes (per boundary the
// values it stages), and µs per call on each backend
// (under the tile tables also the total's µs per sample, which compares
// across tile widths), and under each per-sample table the backends
// that run the scalar
// reference there; exits 1 if any layer's or boundary's output differs
// from the scalar reference by a single bit, or if a tier above the
// portable one declines a tile boundary (each covers all of SVHN's).
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "man/backend/epilogue_sweep.h"
#include "man/backend/kernel_backend.h"
#include "man/core/activation.h"
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
std::size_t plan_bytes(const DenseLayerPlan& plan) {
  return plan_bytes(static_cast<const GroupedPlan&>(plan)) +
         plan.bank_lanes.size() * sizeof(std::uint8_t) +
         (plan.row_runs.size() + plan.run_groups.size()) *
             sizeof(std::uint32_t);
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

/// Per-layer rows of one plan family (or per-boundary rows of the
/// sweeps between them) plus its total row: the row's figures, summed
/// in the total, then µs per call on every backend, the first of which
/// is the scalar reference.
class Report {
 public:
  Report(const std::vector<std::string>& columns,
         const std::vector<const KernelBackend*>& backends)
      : backends_(backends),
        us_(backends.size()),
        totals_(columns.size() - 1),
        table_(header(columns, backends)) {}

  /// Times `run(backend, out)` on every backend into `outputs` slots of
  /// type Out and compares each result with the reference's.
  template <typename Out = std::int64_t, typename Run>
  void add(const std::string& label, const std::vector<std::size_t>& figures,
           std::size_t outputs, Run run) {
    std::vector<std::string> row = {label};
    for (std::size_t i = 0; i < figures.size(); ++i) {
      row.push_back(std::to_string(figures[i]));
      totals_[i] += figures[i];
    }
    std::vector<Out> expected(outputs);
    bool same = true;
    for (std::size_t i = 0; i < backends_.size(); ++i) {
      std::vector<Out> got(outputs, -1);
      Out* out = i == 0 ? expected.data() : got.data();
      const double us = us_per_call([&] { run(*backends_[i], out); });
      same = same && (i == 0 || got == expected);
      us_[i] += us;
      row.push_back(format_double(us, 1));
    }
    row.push_back(same ? "yes" : "NO");
    identical_ = identical_ && same;
    table_.add_row(row);
  }

  /// A plan's row: its terms, groups and bytes, then `more` figures.
  template <typename Plan, typename Run>
  void add_plan(const std::string& label, const Plan& plan,
                std::size_t outputs, Run run,
                const std::vector<std::size_t>& more = {}) {
    std::vector<std::size_t> figures = {plan.idx.size(), plan.shifts.size(),
                                        plan_bytes(plan)};
    figures.insert(figures.end(), more.begin(), more.end());
    add(label, figures, outputs, run);
  }

  /// Prints the table with its total row and, for a table of
  /// `samples`-sample tiles, the total's µs per sample; false on any
  /// mismatch.
  bool print(std::size_t samples = 1) {
    std::vector<std::string> row = {"total"};
    for (const std::size_t total : totals_) {
      row.push_back(std::to_string(total));
    }
    for (const double us : us_) row.push_back(format_double(us, 1));
    row.push_back(identical_ ? "yes" : "NO");
    table_.add_separator();
    table_.add_row(row);
    if (samples > 1) {
      std::vector<std::string> per = {"us per sample"};
      per.resize(totals_.size() + 1);
      for (const double us : us_) {
        per.push_back(format_double(us / static_cast<double>(samples), 2));
      }
      per.emplace_back();
      table_.add_row(per);
    }
    std::cout << table_.to_string();
    return identical_;
  }

 private:
  static std::vector<std::string> header(
      std::vector<std::string> columns,
      const std::vector<const KernelBackend*>& backends) {
    for (const KernelBackend* backend : backends) {
      columns.push_back(std::string(backend->name()) + " us");
    }
    columns.push_back("Bit-identical");
    return columns;
  }

  std::vector<const KernelBackend*> backends_;
  std::vector<double> us_;
  std::vector<std::size_t> totals_;
  man::util::Table table_;
  bool identical_ = true;
};

const std::vector<std::string> kPlanColumns = {"Layer", "Terms", "Groups",
                                               "Plan bytes"};

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

/// One tile boundary on the engine's route: the backend's sweep, or the
/// reference templates where it declines (the scalar backend, which
/// declines every sweep, runs them directly). Sets `declined` when a
/// tier above the portable one declines.
template <typename Sweep, typename Reference>
void run_boundary(const KernelBackend& backend, bool& declined, Sweep sweep,
                  Reference reference) {
  if (backend.kind() != BackendKind::kScalar && sweep()) return;
  declined = declined || backend.accelerated();
  reference();
}

/// The SVHN MLP's tile boundaries, µs per 32-sample tile; false on any
/// mismatch or decline.
bool report_boundaries(const man::engine::FixedNetwork& svhn,
                       const std::string& scheme,
                       const std::vector<const KernelBackend*>& backends) {
  man::bench::print_banner("Dense tile boundaries: SVHN MLP (8-bit) " +
                           scheme + ", " + std::to_string(kDenseTile) +
                           "-sample tile, " + versus(backends));
  const man::nn::QuantSpec spec =
      man::apps::get_app(man::apps::AppId::kSvhnMlp8).quant();
  const man::core::FixedActivationLut lut(
      man::core::ActivationKind::kTanh,
      man::fixed::QFormat(30, spec.weight_format.frac_bits() +
                                  spec.activation_format.frac_bits()),
      spec.activation_format);
  const std::int64_t clip = lut.raw_clamp_hi();
  man::util::Rng rng(975);
  Report report({"Boundary", "Values"}, backends);
  bool declined = false;
  const auto& plans = svhn.plans();
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const DenseLayerPlan& plan = plans[i];
    const auto k = static_cast<std::size_t>(plan.k);
    const man::core::AlphabetSet set = man::core::AlphabetSet::first_n(k);
    const man::backend::StagingWindow window{plan.in_min_raw, plan.in_max_raw,
                                             set.alphabets()};
    const auto cols = static_cast<std::size_t>(plan.cols);
    const std::size_t slots = cols * kDenseTile;
    using man::backend::epilogue::TileSlots;
    if (i == 0) {
      // Pixels as images hold them, in [0, 1], staged sample by sample.
      std::vector<float> pixels(cols * kDenseTile);
      for (float& p : pixels) p = static_cast<float>(rng.next_double());
      const man::backend::epilogue::PixelSource source{
          pixels.data(), spec.activation_format};
      report.add<std::int16_t>(
          "pixels -> " + dense_label(i, plan), {pixels.size()}, slots,
          [&](const KernelBackend& backend, std::int16_t* tile) {
            run_boundary(
                backend, declined,
                [&] {
                  return backend.stage_pixels_tile(
                      pixels, spec.activation_format, window, tile);
                },
                [&] {
                  const TileSlots sink{window, tile};
                  for (std::size_t b = 0; b < kDenseTile; ++b) {
                    for (std::size_t c = 0; c < cols; ++c) {
                      sink(c, b, source(b * cols + c));
                    }
                  }
                });
          });
    } else {
      // Accumulators across the LUT's clamp and beyond it.
      std::vector<std::int64_t> acc(cols * kDenseTile);
      for (std::int64_t& a : acc) a = rng.next_in(-2 * clip, 2 * clip);
      const man::backend::epilogue::LutSource<
          man::backend::epilogue::ValueSource>
          source{{acc.data()}, lut.raw_path()};
      report.add<std::int16_t>(
          "L" + std::to_string(i - 1) + " LUT -> " + dense_label(i, plan),
          {acc.size()}, slots,
          [&](const KernelBackend& backend, std::int16_t* tile) {
            run_boundary(
                backend, declined,
                [&] {
                  return backend.lut_stage_tile(acc.data(), cols,
                                                lut.raw_path(), window, tile);
                },
                [&] {
                  const TileSlots sink{window, tile};
                  for (std::size_t o = 0; o < acc.size(); ++o) {
                    sink(o / kDenseTile, o % kDenseTile, source(o));
                  }
                });
          });
    }
  }
  const bool identical = report.print(kDenseTile);
  if (declined) {
    std::cerr << "a vector tier above the portable one declined a tile "
                 "boundary\n";
  }
  return identical && !declined;
}

/// The four tables of one scheme; false on any mismatch or decline.
bool report_scheme(bool conventional,
                   const std::vector<const KernelBackend*>& backends) {
  const std::string scheme =
      conventional ? "conventional (full set, k = 8)" : "ASM 4 {1,3,5,7}";
  man::bench::print_banner("Dense batch tiles: SVHN MLP (8-bit) " + scheme +
                           ", " + std::to_string(kDenseTile) +
                           "-sample tile, " + versus(backends));
  const auto svhn = build_engine(man::apps::AppId::kSvhnMlp8, conventional);
  std::vector<std::string> tile_columns = kPlanColumns;
  tile_columns.emplace_back("Tile KiB");
  Report dense(tile_columns, backends);
  for (std::size_t i = 0; i < svhn.plans().size(); ++i) {
    const DenseLayerPlan& plan = svhn.plans()[i];
    const auto k = static_cast<std::size_t>(plan.k);
    const man::core::AlphabetSet set = man::core::AlphabetSet::first_n(k);
    const auto alphabets = set.alphabets();
    const int chunk = man::backend::int16_tile_chunk(plan);
    if (man::backend::int32_row_bound(plan, alphabets) >=
            man::backend::kInt32RowOverflow ||
        chunk < 1) {
      std::cout << dense_label(i, plan) << " does not tile\n";
      continue;
    }
    // Input c of sample b: tile[c·kDenseTile + b], x itself.
    const std::size_t slots = static_cast<std::size_t>(plan.cols) * kDenseTile;
    std::vector<std::int16_t> tile(slots);
    man::util::Rng rng(900 + i);
    for (std::int16_t& x : tile) {
      x = static_cast<std::int16_t>(
          rng.next_in(plan.in_min_raw, plan.in_max_raw));
    }
    const std::size_t tile_kib = (slots * sizeof(std::int16_t) + 512) / 1024;
    dense.add_plan(
        dense_label(i, plan), plan,
        static_cast<std::size_t>(plan.rows) * kDenseTile,
        [&](const KernelBackend& backend, std::int64_t* out) {
          backend.accumulate_dense_tile(plan, alphabets, chunk, tile.data(),
                                        out);
        },
        {tile_kib});
  }
  bool ok = dense.print(kDenseTile);

  ok = report_boundaries(svhn, scheme, backends) && ok;

  man::bench::print_banner("Dense per sample: SVHN MLP (8-bit) " + scheme +
                           ", one sample per call, " + versus(backends));
  Report sample(kPlanColumns, backends);
  for (std::size_t i = 0; i < svhn.plans().size(); ++i) {
    const DenseLayerPlan& plan = svhn.plans()[i];
    const auto k = static_cast<std::size_t>(plan.k);
    // Input c, lane l: multiples[c·k + l].
    const auto multiples = stage<std::int64_t>(
        plan, static_cast<std::size_t>(plan.cols), plan.padded_multiples(),
        925 + i, [&](std::size_t n, std::size_t l) { return n * k + l; });
    sample.add_plan(dense_label(i, plan), plan,
               static_cast<std::size_t>(plan.rows),
               [&](const KernelBackend& backend, std::int64_t* out) {
                 backend.accumulate_dense(plan, multiples.data(), out);
               });
  }
  ok = sample.print() && ok;
  // Only the AVX-512 tier has a per-sample kernel of its own.
  std::string reference;
  for (const KernelBackend* backend : backends) {
    if (backend->kind() == BackendKind::kAvx512 &&
        man::backend::detect_best_backend() == BackendKind::kAvx512) {
      continue;
    }
    reference += (reference.empty() ? "" : ", ") + std::string(backend->name());
  }
  std::cout << "Per-sample dense calls run the scalar reference on: "
            << reference << "\n";

  man::bench::print_banner("Conv: LeNet CNN (12-bit) " + scheme +
                           ", one sample per call, " + versus(backends));
  const auto lenet = build_engine(man::apps::AppId::kDigitCnn12, conventional);
  Report conv(kPlanColumns, backends);
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
      conv.add_plan(label, plan, outputs,
               [&](const KernelBackend& backend, std::int64_t* out) {
                 backend.accumulate_conv_int32(plan, multiples.data(), out);
               });
    } else {
      const auto multiples = stage<std::int64_t>(
          plan, elems, plan.padded_multiples(), 950 + i, slot);
      conv.add_plan(label, plan, outputs,
               [&](const KernelBackend& backend, std::int64_t* out) {
                 backend.accumulate_conv(plan, multiples.data(), out);
               });
    }
  }
  ok = conv.print() && ok;
  std::cout << "int64 conv lanes run the scalar reference on every "
               "backend\n";
  return ok;
}

}  // namespace

int main() {
  const auto backends = timed_backends();
  bool ok = true;
  for (const bool conventional : {false, true}) {
    ok = report_scheme(conventional, backends) && ok;
  }
  if (!ok) {
    std::cerr << "plan kernels failed: an output diverges from the scalar "
                 "reference, or a tier declined a boundary\n";
    return 1;
  }
  return 0;
}
