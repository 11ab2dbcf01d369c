#include "man/engine/fixed_network.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "man/core/quartet.h"
#include "man/core/weight_constraint.h"
#include "man/nn/activation_layer.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/util/stopwatch.h"

namespace man::engine {

using man::core::AlphabetSet;
using man::core::MultiplierKind;
using man::core::OpCounts;
using man::core::QuartetLayout;
using man::core::WeightConstraint;

namespace {

// Accumulators carry weight×activation products.
man::fixed::QFormat accumulator_format(const man::nn::QuantSpec& spec) {
  return man::fixed::QFormat(
      30, spec.weight_format.frac_bits() + spec.activation_format.frac_bits());
}

// Every ASM stage fed activation-format values stages from a table
// over the format's raw range, so that range must fit one.
void require_table_window(const man::nn::QuantSpec& spec) {
  const auto& afmt = spec.activation_format;
  const auto span =
      static_cast<std::uint64_t>(afmt.max_raw() - afmt.min_raw()) + 1;
  if (span > man::core::PrecomputerCache::kMaxFlatSpan) {
    throw std::invalid_argument(
        "FixedNetwork: activation format spans " + std::to_string(span) +
        " raw values, the staging table holds at most " +
        std::to_string(man::core::PrecomputerCache::kMaxFlatSpan));
  }
}

// The bank outputs of one synapse stage's input values: a row of the
// stage's table when its inputs are proven to lie in the staging
// window, else the bank's multiples computed into a stack row, as the
// hardware bank does (a stage fed raw accumulators). A row stays valid
// until the next call.
class BankRows {
 public:
  BankRows(const std::optional<man::core::PrecomputerCache>& table,
           const man::core::PrecomputerBank& bank)
      : table_(table ? &*table : nullptr), bank_(&bank) {}

  const std::int64_t* operator()(std::int64_t input) {
    if (table_ != nullptr) return table_->lookup(input, discard_);
    bank_->compute_into(input, row_, discard_);
    return row_;
  }

 private:
  const man::core::PrecomputerCache* table_;
  const man::core::PrecomputerBank* bank_;
  OpCounts discard_;
  std::int64_t row_[(AlphabetSet::kMaxAlphabetValue + 1) / 2];
};

// Stages the CSHM bank outputs of every input element, k-strided
// element-major, into `multiples` (values.size() × k slots) — the
// dense path's staging loop. Consecutive repeated values (long
// background runs in images, saturated LUT outputs) replay the row
// just written.
void stage_multiples(std::span<const std::int64_t> values, std::size_t k,
                     BankRows rows, std::int64_t* multiples) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::int64_t* dest = multiples + i * k;
    if (i > 0 && values[i] == values[i - 1]) {
      std::copy(dest - k, dest, dest);
      continue;
    }
    const std::int64_t* row = rows(values[i]);
    std::copy(row, row + k, dest);
  }
}

// Lane-major variant for the conv path: lane l's multiple of element i
// lands at multiples[l · values.size() + i], so consecutive output
// positions of one conv weight read consecutive slots (the layout
// ConvLayerPlan::idx indexes). Same repeated-value fast path. Slots are
// int64, or int32 for a stage whose plan passed int32_row_bound(),
// which proves every staged multiple fits.
template <typename Slot>
void stage_multiples_lane_major(std::span<const std::int64_t> values,
                                std::size_t k, BankRows rows,
                                Slot* multiples) {
  const std::size_t stride = values.size();
  for (std::size_t i = 0; i < stride; ++i) {
    if (i > 0 && values[i] == values[i - 1]) {
      for (std::size_t l = 0; l < k; ++l) {
        multiples[l * stride + i] = multiples[l * stride + i - 1];
      }
      continue;
    }
    const std::int64_t* row = rows(values[i]);
    for (std::size_t l = 0; l < k; ++l) {
      multiples[l * stride + i] = static_cast<Slot>(row[l]);
    }
  }
}

// Sample-minor variant for the batch tile: `values` holds kDenseTile
// samples per element (element i of sample b at values[i·T + b]), and
// lane l of that element lands at multiples[(i·k + l)·T + b], so the
// T sample lanes of one plan slot sit contiguously — the layout
// accumulate_dense_tile reads. Same bank outputs as the per-sample
// path; the slots are int32, which int32_row_bound() proves every
// tiled stage's multiples fit.
void stage_multiples_tile(std::span<const std::int64_t> values, std::size_t k,
                          BankRows rows, std::int32_t* multiples) {
  constexpr std::size_t kTile = man::backend::kDenseTile;
  const std::size_t elements = values.size() / kTile;
  for (std::size_t i = 0; i < elements; ++i) {
    std::int32_t* dest = multiples + i * k * kTile;
    for (std::size_t b = 0; b < kTile; ++b) {
      const std::int64_t* row = rows(values[i * kTile + b]);
      for (std::size_t l = 0; l < k; ++l) {
        dest[l * kTile + b] = static_cast<std::int32_t>(row[l]);
      }
    }
  }
}

// int32 slots per 64-byte cache line, and how many slots past `p` the
// next line starts.
constexpr std::size_t kLineSlots = 64 / sizeof(std::int32_t);
std::size_t line_offset(const std::int32_t* p) {
  const auto slot = reinterpret_cast<std::uintptr_t>(p) / sizeof(std::int32_t);
  return (kLineSlots - slot % kLineSlots) % kLineSlots;
}

// Phase timing shim: runs `fn` and charges its wall clock to the given
// PhaseProfile field when profiling is on (profile non-null).
template <typename Fn>
void timed_phase(PhaseProfile* profile, double PhaseProfile::*field,
                 Fn&& fn) {
  if (profile == nullptr) {
    fn();
    return;
  }
  man::util::Stopwatch watch;
  fn();
  profile->*field += watch.seconds();
}

bool is_exact(const CompiledSynapse& syn) {
  return syn.scheme.multiplier == MultiplierKind::kExact;
}

// One synapse layer, lowered: quantized weights for an exact plan, or
// each weight's select/shift schedule for build_asm(), which consumes
// it; biases at product scale. Transient: lower() builds the layer's
// plan from it before it lowers the next layer.
struct SynapseSchedule {
  std::vector<std::int32_t> quantized;  ///< exact schemes only
  std::vector<man::backend::AsmWeight> encoded;
  std::vector<man::backend::AsmStep> steps;
  std::vector<std::int64_t> biases;
};

// Quantizes (and, under an ASM scheme, constrains) every weight of one
// synapse layer and encodes it into quartet steps, pricing `syn`'s
// static per-inference activity from the schedule as it goes.
SynapseSchedule lower_synapse(CompiledSynapse& syn,
                              const man::nn::QuantSpec& spec, int lanes,
                              std::span<const float> weights,
                              std::span<const float> biases,
                              std::uint64_t macs, int out_neurons) {
  const auto& wfmt = spec.weight_format;
  const QuartetLayout layout(wfmt.total_bits());
  const AlphabetSet& set = syn.scheme.effective_alphabets();
  SynapseSchedule schedule;
  syn.macs = macs;

  // Biases live at product scale: value·2^(wfrac+afrac).
  const int bias_shift = wfmt.frac_bits() + spec.activation_format.frac_bits();
  schedule.biases.reserve(biases.size());
  for (float b : biases) {
    const double scaled = static_cast<double>(b) * std::pow(2.0, bias_shift);
    schedule.biases.push_back(static_cast<std::int64_t>(
        scaled >= 0 ? scaled + 0.5 : scaled - 0.5));
  }

  // Static per-inference op counts (the accumulator add per MAC).
  OpCounts& ops = syn.ops_per_inference;
  ops.adds = macs;
  if (is_exact(syn)) {
    // The multiplier is priced structurally; the bank never fires.
    schedule.quantized.reserve(weights.size());
    for (float w : weights) {
      schedule.quantized.push_back(wfmt.quantize(static_cast<double>(w)));
    }
    return schedule;
  }

  const WeightConstraint constraint(layout, set);
  const auto alphabets = set.alphabets();
  const std::uint64_t fires_per_weight =
      weights.empty() ? 0 : macs / weights.size();
  schedule.encoded.reserve(weights.size());
  for (float w : weights) {
    const std::int32_t raw =
        constraint.constrain(wfmt.quantize(static_cast<double>(w)));
    man::backend::AsmWeight compiled;
    compiled.step_begin = static_cast<std::uint32_t>(schedule.steps.size());
    const man::core::SignMagnitude sm =
        man::core::to_sign_magnitude(raw, layout);
    compiled.negative = sm.negative;
    for (int q = 0; q < layout.num_quartets(); ++q) {
      const int width = layout.quartet_width(q);
      const int value =
          (sm.magnitude >> layout.quartet_shift(q)) & ((1 << width) - 1);
      if (value == 0) continue;
      const auto enc = set.encode(value, width);
      if (!enc) {
        throw std::logic_error(
            "FixedNetwork: constrained weight has unsupported quartet");
      }
      std::uint8_t lane = 0;
      while (alphabets[lane] != enc->alphabet) ++lane;
      schedule.steps.push_back(man::backend::AsmStep{
          lane,
          static_cast<std::uint8_t>(enc->shift + layout.quartet_shift(q))});
      ++compiled.step_count;
    }
    schedule.encoded.push_back(compiled);

    // Per-fire activity of this weight.
    ops.selects += compiled.step_count * fires_per_weight;
    ops.shifts += compiled.step_count * fires_per_weight;
    if (compiled.step_count > 1) {
      ops.adds += (compiled.step_count - 1) * fires_per_weight;
    }
    if (compiled.negative) ops.negates += fires_per_weight;
  }

  // Hardware bank firings: the bank serves `lanes` neurons at a time,
  // re-streaming the inputs for each neuron group (Fig 3).
  const std::uint64_t groups =
      (static_cast<std::uint64_t>(out_neurons) + lanes - 1) / lanes;
  const std::uint64_t inputs_per_group =
      out_neurons == 0 ? 0 : macs / out_neurons;
  syn.bank_activations = groups * inputs_per_group;
  ops.precomputer_adds =
      syn.bank_activations *
      static_cast<std::uint64_t>(man::core::PrecomputerBank(set).adder_count());
  return schedule;
}

// Every plan carries the activation format's raw range: the window the
// inputs of a stage fed quantized pixels, LUT outputs or pools of
// those lie in, which the int32 tile proof bounds them by.
template <typename Plan>
Plan with_window(Plan plan, const man::nn::QuantSpec& spec) {
  plan.in_min_raw = spec.activation_format.min_raw();
  plan.in_max_raw = spec.activation_format.max_raw();
  return plan;
}

// The synapse descriptor of a dense or conv stage; null otherwise.
const CompiledSynapse* synapse_of(const CompiledStage& stage) {
  if (const auto* dense = std::get_if<CompiledDenseStage>(&stage)) {
    return &dense->synapse;
  }
  if (const auto* conv = std::get_if<CompiledConvStage>(&stage)) {
    return &conv->synapse;
  }
  return nullptr;
}

std::vector<LayerScheme> synapse_schemes(const CompiledModel& model) {
  std::vector<LayerScheme> schemes;
  for (const CompiledStage& stage : model.stages) {
    if (const CompiledSynapse* syn = synapse_of(stage)) {
      schemes.push_back(syn->scheme);
    }
  }
  return schemes;
}

void require_lanes(int lanes) {
  if (lanes < 1) {
    throw std::invalid_argument("FixedNetwork: lanes must be >= 1");
  }
}

}  // namespace

struct FixedNetwork::Lowered {
  CompiledModel model;
  std::vector<man::backend::DenseLayerPlan> plans;
  std::vector<man::backend::ConvLayerPlan> conv_plans;
};

FixedNetwork::Lowered FixedNetwork::lower(man::nn::Network& network,
                                          const man::nn::QuantSpec& spec,
                                          const LayerAlphabetPlan& plan,
                                          int lanes) {
  require_lanes(lanes);  // bank firings divide by it
  if (plan.size() != network.num_weight_layers()) {
    throw std::invalid_argument(
        "FixedNetwork: plan has " + std::to_string(plan.size()) +
        " schemes for " + std::to_string(network.num_weight_layers()) +
        " synapse layers");
  }
  Lowered out;
  out.model.spec = spec;
  out.model.lanes = lanes;
  std::size_t synapse_index = 0;
  const auto next_synapse = [&](const man::nn::Layer& layer) {
    return CompiledSynapse{plan.scheme(synapse_index++), layer.name(), 0, 0,
                           {}};
  };
  const auto alphabet_count = [](const CompiledSynapse& syn) {
    return static_cast<int>(syn.scheme.effective_alphabets().size());
  };
  for (std::size_t li = 0; li < network.num_layers(); ++li) {
    man::nn::Layer& layer = network.layer(li);
    if (auto* dense = dynamic_cast<man::nn::Dense*>(&layer)) {
      CompiledDenseStage stage{dense->in_features(), dense->out_features(),
                               next_synapse(layer)};
      SynapseSchedule s = lower_synapse(
          stage.synapse, spec, lanes, dense->weights(), dense->biases(),
          static_cast<std::uint64_t>(stage.in) * stage.out, stage.out);
      using man::backend::DenseLayerPlan;
      out.plans.push_back(with_window(
          is_exact(stage.synapse)
              ? DenseLayerPlan::build_exact(stage.out, stage.in,
                                            std::move(s.quantized),
                                            std::move(s.biases))
              : DenseLayerPlan::build_asm(
                    stage.out, stage.in, alphabet_count(stage.synapse),
                    std::move(s.encoded), std::move(s.steps),
                    std::move(s.biases)),
          spec));
      out.model.stages.emplace_back(std::move(stage));
    } else if (auto* conv = dynamic_cast<man::nn::Conv2D*>(&layer)) {
      CompiledConvStage stage{conv->in_channels(), conv->out_channels(),
                              conv->kernel(),      conv->in_height(),
                              conv->in_width(),    conv->out_height(),
                              conv->out_width(),   next_synapse(layer)};
      SynapseSchedule s = lower_synapse(
          stage.synapse, spec, lanes, conv->weights(), conv->biases(),
          conv->macs_per_inference(), stage.oc);
      using man::backend::ConvLayerPlan;
      out.conv_plans.push_back(with_window(
          is_exact(stage.synapse)
              ? ConvLayerPlan::build_exact(stage.oc, stage.ic, stage.k,
                                           stage.ih, stage.iw,
                                           std::move(s.quantized),
                                           std::move(s.biases))
              : ConvLayerPlan::build_asm(
                    stage.oc, stage.ic, stage.k, stage.ih, stage.iw,
                    alphabet_count(stage.synapse), std::move(s.encoded),
                    std::move(s.steps), std::move(s.biases)),
          spec));
      out.model.stages.emplace_back(std::move(stage));
    } else if (auto* pool = dynamic_cast<man::nn::AvgPool2D*>(&layer)) {
      out.model.stages.emplace_back(CompiledPoolStage{
          pool->channels(), pool->in_height(), pool->in_width(),
          pool->window(), pool->out_height(), pool->out_width()});
    } else if (auto* act = dynamic_cast<man::nn::ActivationLayer*>(&layer)) {
      out.model.stages.emplace_back(CompiledLutStage{act->kind()});
    } else {
      throw std::invalid_argument("FixedNetwork: unsupported layer type: " +
                                  layer.name());
    }
  }
  return out;
}

FixedNetwork::FixedNetwork(man::nn::Network& network,
                           man::nn::QuantSpec spec, LayerAlphabetPlan plan,
                           int lanes)
    : FixedNetwork(lower(network, spec, plan, lanes)) {}

FixedNetwork::FixedNetwork(Lowered&& lowered)
    : FixedNetwork(lowered.model, std::move(lowered.plans),
                   std::move(lowered.conv_plans), nullptr) {}

FixedNetwork::FixedNetwork(const CompiledModel& model,
                           std::vector<man::backend::DenseLayerPlan> plans,
                           std::vector<man::backend::ConvLayerPlan> conv_plans,
                           std::shared_ptr<const void> storage)
    : model_(model),
      plan_(synapse_schemes(model)),
      plans_(std::move(plans)),
      conv_plans_(std::move(conv_plans)),
      storage_(std::move(storage)) {
  require_lanes(model_.lanes);
  require_table_window(model_.spec);
  const auto acc_format = accumulator_format(model_.spec);
  // Lowering gives every plan the activation format's window; the
  // int32 tile proof bounds the staged inputs by it.
  const auto window = staging_window();
  const auto check_plan = [&](const auto& plan, const CompiledSynapse& syn,
                              bool geometry_matches, const char* kind) {
    if (!geometry_matches || plan.exact != is_exact(syn)) {
      throw std::invalid_argument(std::string("FixedNetwork: ") + kind +
                                  " plan disagrees with its stage descriptor");
    }
    if (plan.in_min_raw != window.first || plan.in_max_raw != window.second) {
      throw std::invalid_argument(
          "FixedNetwork: plan staging window disagrees with the activation "
          "format");
    }
  };
  const auto add_synapse = [&](const CompiledSynapse& syn,
                               std::size_t plan_index) {
    stats_.layers.push_back(LayerStats{syn.name, 0, 0, {}});
    stages_.emplace_back(SynapseStage{
        plan_index,
        man::core::PrecomputerBank(syn.scheme.effective_alphabets()),
        std::nullopt});
  };

  std::size_t dense_count = 0;
  std::size_t conv_count = 0;
  stages_.reserve(model_.stages.size());
  for (const CompiledStage& cs : model_.stages) {
    if (const auto* d = std::get_if<CompiledDenseStage>(&cs)) {
      if (dense_count >= plans_.size()) {
        throw std::invalid_argument(
            "FixedNetwork: more dense stages than dense plans");
      }
      const auto& plan = plans_[dense_count];
      check_plan(plan, d->synapse, plan.rows == d->out && plan.cols == d->in,
                 "dense");
      add_synapse(d->synapse, dense_count++);
    } else if (const auto* c = std::get_if<CompiledConvStage>(&cs)) {
      if (conv_count >= conv_plans_.size()) {
        throw std::invalid_argument(
            "FixedNetwork: more conv stages than conv plans");
      }
      const auto& plan = conv_plans_[conv_count];
      check_plan(plan, c->synapse,
                 plan.oc == c->oc && plan.ic == c->ic && plan.kernel == c->k &&
                     plan.ih == c->ih && plan.iw == c->iw &&
                     plan.oh == c->oh && plan.ow == c->ow,
                 "conv");
      add_synapse(c->synapse, conv_count++);
    } else if (const auto* p = std::get_if<CompiledPoolStage>(&cs)) {
      // The AvgPool2D identities: every window read stays in its
      // channel's ih × iw input.
      if (p->c < 1 || p->window < 1 || p->ih < 0 || p->iw < 0 ||
          p->ih % p->window != 0 || p->iw % p->window != 0 ||
          p->oh != p->ih / p->window || p->ow != p->iw / p->window) {
        throw std::invalid_argument("FixedNetwork: bad pool geometry");
      }
      stages_.emplace_back(std::monostate{});
    } else if (const auto* l = std::get_if<CompiledLutStage>(&cs)) {
      const auto kind = static_cast<int>(l->kind);
      if (kind < static_cast<int>(man::core::ActivationKind::kIdentity) ||
          kind > static_cast<int>(man::core::ActivationKind::kRelu)) {
        throw std::invalid_argument("FixedNetwork: bad activation kind " +
                                    std::to_string(kind));
      }
      stages_.emplace_back(LutStage{man::core::FixedActivationLut(
          l->kind, acc_format, model_.spec.activation_format)});
    }
  }
  if (dense_count != plans_.size() || conv_count != conv_plans_.size()) {
    throw std::invalid_argument(
        "FixedNetwork: plan count disagrees with stage descriptors");
  }

  link_stages();
  plan_int32_lanes();
  build_tables();
  default_kernel_ = &man::backend::resolve();
}

void FixedNetwork::link_stages() {
  // Static stage-graph geometry: records input/output sizes (span
  // validation, batch buffer pre-allocation) and rejects mis-chained
  // networks up front — infer_into() itself no longer re-checks every
  // stage boundary per sample.
  std::size_t current = 0;  // 0 until the first size-defining stage
  const auto chain = [&](std::size_t in, std::size_t out, const char* kind) {
    if (current != 0 && current != in) {
      throw std::invalid_argument(
          std::string("FixedNetwork: ") + kind + " stage expects " +
          std::to_string(in) + " inputs but previous stage produces " +
          std::to_string(current));
    }
    if (input_size_ == 0) input_size_ = in;
    current = out;
  };
  for (const CompiledStage& stage : model_.stages) {
    if (const auto* dense = std::get_if<CompiledDenseStage>(&stage)) {
      chain(static_cast<std::size_t>(dense->in),
            static_cast<std::size_t>(dense->out), "dense");
    } else if (const auto* conv = std::get_if<CompiledConvStage>(&stage)) {
      chain(static_cast<std::size_t>(conv->ic) * conv->ih * conv->iw,
            static_cast<std::size_t>(conv->oc) * conv->oh * conv->ow, "conv");
    } else if (const auto* pool = std::get_if<CompiledPoolStage>(&stage)) {
      chain(static_cast<std::size_t>(pool->c) * pool->ih * pool->iw,
            static_cast<std::size_t>(pool->c) * pool->oh * pool->ow, "pool");
    }
  }
  output_size_ = current;
}

bool FixedNetwork::input_in_window(std::size_t stage_index) const {
  // Quantized pixels and LUT outputs are activation-format values;
  // a pool averages its inputs, so it keeps them in range; dense and
  // conv stages emit raw product-scale accumulators.
  if (stage_index == 0) return true;
  const CompiledStage& prev = model_.stages[stage_index - 1];
  if (std::holds_alternative<CompiledLutStage>(prev)) return true;
  return std::holds_alternative<CompiledPoolStage>(prev) &&
         input_in_window(stage_index - 1);
}

void FixedNetwork::plan_int32_lanes() {
  // Where a batch tile forms: the first dense stage of the longest
  // trailing run of LUT stages and ASM dense stages whose plans fit
  // int32 lanes (the MLP's whole network, LeNet's fully connected
  // tail; exact plans never fit). The proof assumes every input lies
  // in the staging window, so a dense stage fed raw accumulators ends
  // the run too. Everything before the run stays per sample on the
  // int64 kernels.
  tile_begin_ = stages_.size();
  for (std::size_t i = stages_.size(); i-- > 0;) {
    if (std::holds_alternative<CompiledDenseStage>(model_.stages[i])) {
      const auto& syn = std::get<SynapseStage>(stages_[i]);
      const std::int64_t bound = man::backend::int32_row_bound(
          plans_[syn.plan_index], syn.bank.alphabet_set().alphabets());
      if (bound >= man::backend::kInt32RowOverflow || !input_in_window(i)) {
        break;
      }
      tile_begin_ = i;
    } else if (!std::holds_alternative<LutStage>(stages_[i])) {
      break;
    }
  }
  tile_synapse_begin_ = static_cast<std::size_t>(std::count_if(
      stages_.begin(),
      stages_.begin() + static_cast<std::ptrdiff_t>(tile_begin_),
      [](const Stage& stage) {
        return std::holds_alternative<SynapseStage>(stage);
      }));

  // A conv stage runs int32 lanes under the same proof and the same
  // window condition; any other conv plan stays on int64 lanes.
  conv_int32_lanes_.assign(conv_plans_.size(), false);
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (!std::holds_alternative<CompiledConvStage>(model_.stages[i])) {
      continue;
    }
    const auto& syn = std::get<SynapseStage>(stages_[i]);
    conv_int32_lanes_[syn.plan_index] =
        input_in_window(i) &&
        man::backend::int32_row_bound(conv_plans_[syn.plan_index],
                                      syn.bank.alphabet_set().alphabets()) <
            man::backend::kInt32RowOverflow;
  }
}

void FixedNetwork::build_tables() {
  const auto [in_min, in_max] = staging_window();
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    auto* syn = std::get_if<SynapseStage>(&stages_[i]);
    if (syn == nullptr || is_exact(*synapse_of(model_.stages[i])) ||
        !input_in_window(i)) {
      continue;
    }
    syn->table.emplace(syn->bank);
    syn->table->configure_range(in_min, in_max);
  }
}

std::pair<std::int64_t, std::int64_t> FixedNetwork::staging_window() const {
  return {model_.spec.activation_format.min_raw(),
          model_.spec.activation_format.max_raw()};
}

FixedNetwork::InferScratch FixedNetwork::make_scratch() const {
  InferScratch scratch;
  scratch.buffer.reserve(input_size_);
  return scratch;
}

EngineStats FixedNetwork::make_stats() const {
  EngineStats stats;
  stats.layers.reserve(stats_.layers.size());
  for (const LayerStats& layer : stats_.layers) {
    stats.layers.push_back(LayerStats{layer.name, 0, 0, {}});
  }
  return stats;
}

void FixedNetwork::infer_into(std::span<const float> pixels,
                              std::span<std::int64_t> out,
                              EngineStats& stats,
                              InferScratch& scratch) const {
  infer_into(pixels, out, stats, scratch, *default_kernel_);
}

void FixedNetwork::infer_into(std::span<const float> pixels,
                              std::span<std::int64_t> out,
                              EngineStats& stats, InferScratch& scratch,
                              const man::backend::KernelBackend& kernel) const {
  if (pixels.size() != input_size_) {
    throw std::invalid_argument(
        "FixedNetwork: input has " + std::to_string(pixels.size()) +
        " values, engine expects " + std::to_string(input_size_));
  }
  infer_batch(pixels, out, stats, scratch, kernel);
}

void FixedNetwork::infer_batch(std::span<const float> pixels,
                               std::span<std::int64_t> out,
                               EngineStats& stats, InferScratch& scratch,
                               const man::backend::KernelBackend& kernel)
    const {
  if (input_size_ == 0 || pixels.size() % input_size_ != 0) {
    throw std::invalid_argument(
        "FixedNetwork: input has " + std::to_string(pixels.size()) +
        " values, not a whole number of " + std::to_string(input_size_) +
        "-value samples");
  }
  const std::size_t count = pixels.size() / input_size_;
  if (out.size() != count * output_size_) {
    throw std::invalid_argument(
        "FixedNetwork: output span has " + std::to_string(out.size()) +
        " slots, engine produces " + std::to_string(count * output_size_));
  }
  if (stats.layers.empty()) stats = make_stats();
  if (stats.layers.size() != stats_.layers.size()) {
    throw std::invalid_argument(
        "FixedNetwork: stats layout mismatch; use make_stats()");
  }

  const auto sample = [&](std::size_t s) {
    return pixels.subspan(s * input_size_, input_size_);
  };
  constexpr std::size_t kTile = man::backend::kDenseTile;
  std::size_t s = 0;
  if (tile_begin_ < stages_.size()) {
    // Full tiles: each sample runs the stages before the tile alone,
    // then lands in its lane of the sample-minor tile.
    const auto width = static_cast<std::size_t>(
        std::get<CompiledDenseStage>(model_.stages[tile_begin_]).in);
    for (; s + kTile <= count; s += kTile) {
      scratch.tile.resize(width * kTile);
      for (std::size_t b = 0; b < kTile; ++b) {
        forward_sample(sample(s + b), tile_begin_, stats, scratch, kernel);
        for (std::size_t i = 0; i < width; ++i) {
          scratch.tile[i * kTile + b] = scratch.buffer[i];
        }
      }
      forward_tile(stats, scratch, kernel);
      for (std::size_t b = 0; b < kTile; ++b) {
        std::int64_t* dst = out.data() + (s + b) * output_size_;
        for (std::size_t r = 0; r < output_size_; ++r) {
          dst[r] = scratch.tile[r * kTile + b];
        }
      }
      stats.inferences += kTile;
    }
  }
  // The remainder (and every sample of an engine without a tile) runs
  // the whole network one sample at a time.
  for (; s < count; ++s) {
    forward_sample(sample(s), stages_.size(), stats, scratch, kernel);
    std::copy(scratch.buffer.begin(), scratch.buffer.end(),
              out.begin() + static_cast<std::ptrdiff_t>(s * output_size_));
    stats.inferences += 1;
  }
}

void FixedNetwork::charge_synapse(LayerStats& layer,
                                  const CompiledSynapse& syn,
                                  std::uint64_t samples) {
  layer.macs += syn.macs * samples;
  layer.bank_activations += syn.bank_activations * samples;
  for (std::uint64_t s = 0; s < samples; ++s) {
    layer.ops += syn.ops_per_inference;
  }
}

void FixedNetwork::forward_sample(std::span<const float> pixels,
                                  std::size_t stage_end, EngineStats& stats,
                                  InferScratch& scratch,
                                  const man::backend::KernelBackend& kernel)
    const {
  const auto& afmt = model_.spec.activation_format;
  PhaseProfile* const profile = scratch.profile;
  std::vector<std::int64_t>& buffer = scratch.buffer;
  timed_phase(profile, &PhaseProfile::quantize_s, [&] {
    buffer.clear();
    buffer.reserve(pixels.size());
    for (float p : pixels) {
      buffer.push_back(afmt.quantize(static_cast<double>(p)));
    }
  });

  std::size_t synapse_counter = 0;
  for (std::size_t si = 0; si < stage_end; ++si) {
    const CompiledStage& desc = model_.stages[si];
    if (const auto* dense = std::get_if<CompiledDenseStage>(&desc)) {
      const auto& syn = std::get<SynapseStage>(stages_[si]);
      std::vector<std::int64_t>& next = scratch.next;
      next.assign(static_cast<std::size_t>(dense->out), 0);
      const man::backend::DenseLayerPlan& plan = plans_[syn.plan_index];

      if (plan.exact) {
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.exact_dense(plan, buffer.data(), next.data());
        });
      } else {
        // Pre-computer bank outputs for every input value (one bank
        // row per value, shared across lanes — CSHM), staged k-strided.
        std::vector<std::int64_t>& multiples = scratch.multiples;
        timed_phase(profile, &PhaseProfile::staging_s, [&] {
          multiples.resize(plan.padded_multiples());
          stage_multiples(buffer, static_cast<std::size_t>(plan.k),
                          BankRows(syn.table, syn.bank), multiples.data());
        });
        if (profile != nullptr) profile->staged_values += buffer.size();
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.accumulate_dense(plan, multiples.data(), next.data());
        });
      }

      charge_synapse(stats.layers[synapse_counter++], dense->synapse, 1);
      std::swap(buffer, next);
    } else if (const auto* conv = std::get_if<CompiledConvStage>(&desc)) {
      const auto& syn = std::get<SynapseStage>(stages_[si]);
      std::vector<std::int64_t>& next = scratch.next;
      next.resize(static_cast<std::size_t>(conv->oc) * conv->oh * conv->ow);
      const man::backend::ConvLayerPlan& plan = conv_plans_[syn.plan_index];

      if (plan.exact) {
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.exact_conv(plan, buffer.data(), next.data());
        });
      } else {
        // Lane-major staging (consecutive positions read consecutive
        // slots) — in int32 slots when the plan fits int32 lanes,
        // reusing the tile's int32 buffer.
        const auto run = [&](auto& multiples) {
          timed_phase(profile, &PhaseProfile::staging_s, [&] {
            multiples.resize(plan.padded_multiples());
            stage_multiples_lane_major(
                buffer, static_cast<std::size_t>(plan.k),
                BankRows(syn.table, syn.bank), multiples.data());
          });
          if (profile != nullptr) profile->staged_values += buffer.size();
          timed_phase(profile, &PhaseProfile::kernel_s, [&] {
            if constexpr (std::is_same_v<decltype(multiples.data()),
                                         std::int32_t*>) {
              kernel.accumulate_conv_int32(plan, multiples.data(),
                                           next.data());
            } else {
              kernel.accumulate_conv(plan, multiples.data(), next.data());
            }
          });
        };
        if (conv_int32_lanes_[syn.plan_index]) {
          run(scratch.tile_multiples);
        } else {
          run(scratch.multiples);
        }
      }

      charge_synapse(stats.layers[synapse_counter++], conv->synapse, 1);
      std::swap(buffer, next);
    } else if (const auto* pool = std::get_if<CompiledPoolStage>(&desc)) {
      std::vector<std::int64_t>& next = scratch.next;
      next.assign(static_cast<std::size_t>(pool->c) * pool->oh * pool->ow, 0);
      const int n = pool->window * pool->window;
      timed_phase(profile, &PhaseProfile::pool_s, [&] {
        for (int c = 0; c < pool->c; ++c) {
          for (int oy = 0; oy < pool->oh; ++oy) {
            for (int ox = 0; ox < pool->ow; ++ox) {
              std::int64_t acc = 0;
              for (int wy = 0; wy < pool->window; ++wy) {
                for (int wx = 0; wx < pool->window; ++wx) {
                  acc += buffer[static_cast<std::size_t>(
                      (c * pool->ih + oy * pool->window + wy) * pool->iw +
                      ox * pool->window + wx)];
                }
              }
              // Round-to-nearest average (hardware: add tree + shift
              // for power-of-two windows).
              const std::int64_t rounded =
                  acc >= 0 ? (acc + n / 2) / n : -((-acc + n / 2) / n);
              next[static_cast<std::size_t>((c * pool->oh + oy) * pool->ow +
                                            ox)] = rounded;
            }
          }
        }
      });
      std::swap(buffer, next);
    } else if (const auto* lut = std::get_if<LutStage>(&stages_[si])) {
      timed_phase(profile, &PhaseProfile::lut_s, [&] {
        for (std::int64_t& v : buffer) v = lut->lut.apply_raw(v);
      });
      if (profile != nullptr) profile->lut_values += buffer.size();
    }
  }
}

void FixedNetwork::forward_tile(EngineStats& stats, InferScratch& scratch,
                                const man::backend::KernelBackend& kernel)
    const {
  constexpr std::size_t kTile = man::backend::kDenseTile;
  PhaseProfile* const profile = scratch.profile;
  std::vector<std::int64_t>& tile = scratch.tile;
  std::size_t synapse_counter = tile_synapse_begin_;
  for (std::size_t si = tile_begin_; si < stages_.size(); ++si) {
    if (const auto* dense =
            std::get_if<CompiledDenseStage>(&model_.stages[si])) {
      // Every dense stage from tile_begin_ on is ASM and fits int32
      // lanes (plan_int32_lanes).
      const auto& syn = std::get<SynapseStage>(stages_[si]);
      const man::backend::DenseLayerPlan& plan = plans_[syn.plan_index];
      // The tile starts on a cache line (the buffer carries the slack),
      // so each slot's kDenseTile int32 lanes are exactly one line.
      std::vector<std::int32_t>& buffer = scratch.tile_multiples;
      std::int32_t* multiples = nullptr;
      timed_phase(profile, &PhaseProfile::staging_s, [&] {
        buffer.resize(plan.padded_multiples() * kTile + kLineSlots - 1);
        multiples = buffer.data() + line_offset(buffer.data());
        stage_multiples_tile(tile, static_cast<std::size_t>(plan.k),
                             BankRows(syn.table, syn.bank), multiples);
      });
      if (profile != nullptr) profile->staged_values += tile.size();
      std::vector<std::int64_t>& next = scratch.tile_next;
      next.resize(static_cast<std::size_t>(dense->out) * kTile);
      timed_phase(profile, &PhaseProfile::kernel_s, [&] {
        kernel.accumulate_dense_tile(plan, multiples, next.data());
      });
      charge_synapse(stats.layers[synapse_counter++], dense->synapse, kTile);
      std::swap(tile, next);
    } else if (const auto* lut = std::get_if<LutStage>(&stages_[si])) {
      timed_phase(profile, &PhaseProfile::lut_s, [&] {
        for (std::int64_t& v : tile) v = lut->lut.apply_raw(v);
      });
      if (profile != nullptr) profile->lut_values += tile.size();
    }
  }
}

void FixedNetwork::infer_into(std::span<const float> pixels,
                              std::span<std::int64_t> out,
                              EngineStats& stats) const {
  InferScratch scratch = make_scratch();
  infer_into(pixels, out, stats, scratch);
}

std::vector<std::int64_t> FixedNetwork::forward_raw(
    std::span<const float> pixels) {
  std::vector<std::int64_t> out(output_size_);
  infer_into(pixels, out, stats_);
  return out;
}

int FixedNetwork::predict(std::span<const float> pixels) {
  return argmax_raw(forward_raw(pixels));
}

double FixedNetwork::evaluate(std::span<const man::data::Example> examples) {
  if (examples.empty()) return 0.0;
  InferScratch scratch = make_scratch();
  std::vector<std::int64_t> raw(output_size_);
  std::size_t correct = 0;
  for (const man::data::Example& ex : examples) {
    infer_into(ex.pixels, raw, stats_, scratch);
    if (argmax_raw(raw) == ex.label) ++correct;
  }
  return static_cast<double>(correct) / examples.size();
}

std::vector<std::uint64_t> FixedNetwork::macs_per_inference() const {
  std::vector<std::uint64_t> macs;
  for (const CompiledStage& stage : model_.stages) {
    if (const CompiledSynapse* syn = synapse_of(stage)) {
      macs.push_back(syn->macs);
    }
  }
  return macs;
}

}  // namespace man::engine
