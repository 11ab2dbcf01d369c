#include "man/engine/fixed_network.h"

#include <algorithm>
#include <stdexcept>

#include "man/backend/conv_autotune.h"
#include "man/core/asm_multiplier.h"
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
// ConvLayerPlan::idx indexes). Same repeated-value fast path.
void stage_multiples_lane_major(std::span<const std::int64_t> values,
                                std::size_t k, BankRows rows,
                                std::int64_t* multiples) {
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
      multiples[l * stride + i] = row[l];
    }
  }
}

// Sample-minor variant for the batch tile: `values` holds kDenseTile
// samples per element (element i of sample b at values[i·T + b]), and
// lane l of that element lands at multiples[(i·k + l)·T + b], so the
// T sample lanes of one plan slot sit contiguously — the layout
// accumulate_dense_tile reads. Same bank outputs as the per-sample
// path; the slots are int32, which int32_tile_bound() proves every
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

}  // namespace

FixedNetwork::FixedNetwork(man::nn::Network& network,
                           man::nn::QuantSpec spec, LayerAlphabetPlan plan,
                           int lanes)
    : spec_(spec), plan_(std::move(plan)), lanes_(lanes) {
  if (lanes_ < 1) {
    throw std::invalid_argument("FixedNetwork: lanes must be >= 1");
  }
  require_table_window(spec_);
  if (plan_.size() != network.num_weight_layers()) {
    throw std::invalid_argument(
        "FixedNetwork: plan has " + std::to_string(plan_.size()) +
        " schemes for " + std::to_string(network.num_weight_layers()) +
        " synapse layers");
  }

  const auto acc_format = accumulator_format(spec_);
  std::size_t synapse_index = 0;
  for (std::size_t li = 0; li < network.num_layers(); ++li) {
    man::nn::Layer& layer = network.layer(li);
    if (auto* dense = dynamic_cast<man::nn::Dense*>(&layer)) {
      DenseStage stage;
      stage.in = dense->in_features();
      stage.out = dense->out_features();
      stage.synapse.scheme = plan_.scheme(synapse_index++);
      compile_synapse(stage.synapse, dense->weights(), dense->biases(),
                      static_cast<std::uint64_t>(stage.in) * stage.out,
                      stage.out);
      synapse_stage_indices_.push_back(stages_.size());
      stats_.layers.push_back(LayerStats{dense->name(), 0, 0, {}});
      stages_.emplace_back(std::move(stage));
    } else if (auto* conv = dynamic_cast<man::nn::Conv2D*>(&layer)) {
      ConvStage stage;
      stage.ic = conv->in_channels();
      stage.oc = conv->out_channels();
      stage.k = conv->kernel();
      stage.ih = conv->in_height();
      stage.iw = conv->in_width();
      stage.oh = conv->out_height();
      stage.ow = conv->out_width();
      stage.synapse.scheme = plan_.scheme(synapse_index++);
      compile_synapse(stage.synapse, conv->weights(),
                      std::span<const float>(conv->biases().data(),
                                             conv->biases().size()),
                      conv->macs_per_inference(), stage.oc);
      synapse_stage_indices_.push_back(stages_.size());
      stats_.layers.push_back(LayerStats{conv->name(), 0, 0, {}});
      stages_.emplace_back(std::move(stage));
    } else if (auto* pool = dynamic_cast<man::nn::AvgPool2D*>(&layer)) {
      PoolStage stage;
      stage.c = pool->channels();
      stage.ih = pool->in_height();
      stage.iw = pool->in_width();
      stage.window = pool->window();
      stage.oh = pool->out_height();
      stage.ow = pool->out_width();
      stages_.emplace_back(stage);
    } else if (auto* act =
                   dynamic_cast<man::nn::ActivationLayer*>(&layer)) {
      stages_.emplace_back(LutStage{man::core::FixedActivationLut(
          act->kind(), acc_format, spec_.activation_format)});
    } else {
      throw std::invalid_argument("FixedNetwork: unsupported layer type: " +
                                  layer.name());
    }
  }

  link_stages();
  compile_plan();
  plan_tile();
  build_tables();
  default_kernel_ = &man::backend::resolve();
}

void FixedNetwork::link_stages() {
  // Static stage-graph geometry: records input/output sizes (span
  // validation, batch buffer pre-allocation) and rejects mis-chained
  // networks up front — infer_into() itself no longer re-checks every
  // stage boundary per sample.
  std::size_t current = 0;  // 0 until the first size-defining stage
  const auto check_chain = [&](std::size_t expected, const char* kind) {
    if (current != 0 && current != expected) {
      throw std::invalid_argument(
          std::string("FixedNetwork: ") + kind + " stage expects " +
          std::to_string(expected) + " inputs but previous stage produces " +
          std::to_string(current));
    }
  };
  for (const Stage& stage : stages_) {
    if (const auto* dense = std::get_if<DenseStage>(&stage)) {
      check_chain(static_cast<std::size_t>(dense->in), "dense");
      if (input_size_ == 0) input_size_ = static_cast<std::size_t>(dense->in);
      current = static_cast<std::size_t>(dense->out);
    } else if (const auto* conv = std::get_if<ConvStage>(&stage)) {
      const auto conv_in =
          static_cast<std::size_t>(conv->ic) * conv->ih * conv->iw;
      check_chain(conv_in, "conv");
      if (input_size_ == 0) input_size_ = conv_in;
      current = static_cast<std::size_t>(conv->oc) * conv->oh * conv->ow;
    } else if (const auto* pool = std::get_if<PoolStage>(&stage)) {
      const auto pool_in =
          static_cast<std::size_t>(pool->c) * pool->ih * pool->iw;
      check_chain(pool_in, "pool");
      if (input_size_ == 0) input_size_ = pool_in;
      current = static_cast<std::size_t>(pool->c) * pool->oh * pool->ow;
    }
  }
  output_size_ = current;
}

bool FixedNetwork::input_in_window(std::size_t stage_index) const {
  // Quantized pixels and LUT outputs are activation-format values;
  // a pool averages its inputs, so it keeps them in range; dense and
  // conv stages emit raw product-scale accumulators.
  if (stage_index == 0) return true;
  const Stage& prev = stages_[stage_index - 1];
  if (std::holds_alternative<LutStage>(prev)) return true;
  return std::holds_alternative<PoolStage>(prev) &&
         input_in_window(stage_index - 1);
}

void FixedNetwork::plan_tile() {
  // Where a batch tile forms: the first dense stage of the longest
  // trailing run of LUT stages and ASM dense stages whose plans fit
  // int32 lanes (the MLP's whole network, LeNet's fully connected
  // tail; exact plans never fit). The proof assumes every input lies
  // in the staging window, so a dense stage fed raw accumulators ends
  // the run too. Everything before the run stays per sample on the
  // int64 kernels.
  tile_begin_ = stages_.size();
  for (std::size_t i = stages_.size(); i-- > 0;) {
    const auto* dense = std::get_if<DenseStage>(&stages_[i]);
    if (dense != nullptr) {
      const auto& plan = plans_[static_cast<std::size_t>(dense->plan_index)];
      const std::int64_t bound = man::backend::int32_tile_bound(
          plan, dense->synapse.bank.alphabet_set().alphabets());
      if (bound >= man::backend::kInt32TileOverflow || !input_in_window(i)) {
        break;
      }
      tile_begin_ = i;
    } else if (!std::holds_alternative<LutStage>(stages_[i])) {
      break;
    }
  }
  tile_synapse_begin_ = static_cast<std::size_t>(
      std::count_if(synapse_stage_indices_.begin(),
                    synapse_stage_indices_.end(),
                    [&](std::size_t idx) { return idx < tile_begin_; }));
}

void FixedNetwork::build_tables() {
  const auto [in_min, in_max] = staging_window();
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    SynapseData* syn = nullptr;
    if (auto* dense = std::get_if<DenseStage>(&stages_[i])) {
      syn = &dense->synapse;
    } else if (auto* conv = std::get_if<ConvStage>(&stages_[i])) {
      syn = &conv->synapse;
    }
    if (syn == nullptr || syn->scheme.multiplier == MultiplierKind::kExact ||
        !input_in_window(i)) {
      continue;
    }
    syn->table.emplace(syn->bank);
    syn->table->configure_range(in_min, in_max);
  }
}

namespace {

std::vector<LayerScheme> synapse_schemes(const CompiledModel& model) {
  std::vector<LayerScheme> schemes;
  for (const CompiledStage& stage : model.stages) {
    if (const auto* dense = std::get_if<CompiledDenseStage>(&stage)) {
      schemes.push_back(dense->synapse.scheme);
    } else if (const auto* conv = std::get_if<CompiledConvStage>(&stage)) {
      schemes.push_back(conv->synapse.scheme);
    }
  }
  return schemes;
}

}  // namespace

FixedNetwork::FixedNetwork(const CompiledModel& model,
                           std::vector<man::backend::DenseLayerPlan> plans,
                           std::vector<man::backend::ConvLayerPlan> conv_plans,
                           std::shared_ptr<const void> storage)
    : spec_(model.spec),
      plan_(LayerAlphabetPlan(synapse_schemes(model))),
      lanes_(model.lanes),
      plans_(std::move(plans)),
      conv_plans_(std::move(conv_plans)),
      storage_(std::move(storage)) {
  if (lanes_ < 1) {
    throw std::invalid_argument("FixedNetwork: lanes must be >= 1");
  }
  require_table_window(spec_);
  const auto acc_format = accumulator_format(spec_);
  const auto restore_synapse = [](SynapseData& syn,
                                  const CompiledSynapse& cs) {
    syn.scheme = cs.scheme;
    // Banks are cheap deterministic functions of the alphabet set —
    // rebuilt here instead of serialized.
    syn.bank = man::core::PrecomputerBank(cs.scheme.effective_alphabets());
    syn.macs = cs.macs;
    syn.bank_activations = cs.bank_activations;
    syn.ops_per_inference = cs.ops_per_inference;
  };

  std::size_t dense_count = 0;
  std::size_t conv_count = 0;
  for (const CompiledStage& cs : model.stages) {
    if (const auto* d = std::get_if<CompiledDenseStage>(&cs)) {
      if (dense_count >= plans_.size()) {
        throw std::invalid_argument(
            "FixedNetwork: more dense stages than dense plans");
      }
      const auto& plan = plans_[dense_count];
      const bool exact =
          d->synapse.scheme.multiplier == MultiplierKind::kExact;
      if (plan.rows != d->out || plan.cols != d->in || plan.exact != exact) {
        throw std::invalid_argument(
            "FixedNetwork: dense plan disagrees with its stage descriptor");
      }
      DenseStage stage;
      stage.in = d->in;
      stage.out = d->out;
      stage.plan_index = static_cast<int>(dense_count++);
      restore_synapse(stage.synapse, d->synapse);
      synapse_stage_indices_.push_back(stages_.size());
      stats_.layers.push_back(LayerStats{d->synapse.name, 0, 0, {}});
      stages_.emplace_back(std::move(stage));
    } else if (const auto* c = std::get_if<CompiledConvStage>(&cs)) {
      if (conv_count >= conv_plans_.size()) {
        throw std::invalid_argument(
            "FixedNetwork: more conv stages than conv plans");
      }
      const auto& plan = conv_plans_[conv_count];
      const bool exact =
          c->synapse.scheme.multiplier == MultiplierKind::kExact;
      if (plan.oc != c->oc || plan.ic != c->ic || plan.kernel != c->k ||
          plan.ih != c->ih || plan.iw != c->iw || plan.oh != c->oh ||
          plan.ow != c->ow || plan.exact != exact) {
        throw std::invalid_argument(
            "FixedNetwork: conv plan disagrees with its stage descriptor");
      }
      ConvStage stage;
      stage.ic = c->ic;
      stage.oc = c->oc;
      stage.k = c->k;
      stage.ih = c->ih;
      stage.iw = c->iw;
      stage.oh = c->oh;
      stage.ow = c->ow;
      stage.plan_index = static_cast<int>(conv_count++);
      restore_synapse(stage.synapse, c->synapse);
      synapse_stage_indices_.push_back(stages_.size());
      stats_.layers.push_back(LayerStats{c->synapse.name, 0, 0, {}});
      stages_.emplace_back(std::move(stage));
    } else if (const auto* p = std::get_if<CompiledPoolStage>(&cs)) {
      PoolStage stage;
      stage.c = p->c;
      stage.ih = p->ih;
      stage.iw = p->iw;
      stage.window = p->window;
      stage.oh = p->oh;
      stage.ow = p->ow;
      stages_.emplace_back(stage);
    } else if (const auto* l = std::get_if<CompiledLutStage>(&cs)) {
      stages_.emplace_back(LutStage{man::core::FixedActivationLut(
          l->kind, acc_format, spec_.activation_format)});
    }
  }
  if (dense_count != plans_.size() || conv_count != conv_plans_.size()) {
    throw std::invalid_argument(
        "FixedNetwork: plan count disagrees with stage descriptors");
  }
  // compile_plan() gives every plan the activation format's window;
  // the int32 tile proof bounds the staged inputs by it.
  const auto window = staging_window();
  const auto check_window = [&](std::int64_t in_min, std::int64_t in_max) {
    if (in_min != window.first || in_max != window.second) {
      throw std::invalid_argument(
          "FixedNetwork: plan staging window disagrees with the activation "
          "format");
    }
  };
  for (const auto& plan : plans_) {
    check_window(plan.in_min_raw, plan.in_max_raw);
  }
  for (const auto& plan : conv_plans_) {
    check_window(plan.in_min_raw, plan.in_max_raw);
  }

  link_stages();
  plan_tile();
  // Plans saved on a host without live vector backends arrive with
  // untuned tiles; finish the pick here (no-op when already tuned,
  // exact, or tiny).
  for (auto& plan : conv_plans_) {
    if (!plan.tiles_tuned) man::backend::autotune_conv_plan(plan);
  }
  build_tables();
  default_kernel_ = &man::backend::resolve();
}

CompiledModel FixedNetwork::compiled_model() const {
  CompiledModel model;
  model.spec = spec_;
  model.lanes = lanes_;
  model.stages.reserve(stages_.size());
  std::size_t synapse_counter = 0;
  const auto export_synapse = [&](const SynapseData& syn) {
    CompiledSynapse cs;
    cs.scheme = syn.scheme;
    cs.name = stats_.layers[synapse_counter++].name;
    cs.macs = syn.macs;
    cs.bank_activations = syn.bank_activations;
    cs.ops_per_inference = syn.ops_per_inference;
    return cs;
  };
  for (const Stage& stage : stages_) {
    if (const auto* dense = std::get_if<DenseStage>(&stage)) {
      model.stages.emplace_back(CompiledDenseStage{
          dense->in, dense->out, export_synapse(dense->synapse)});
    } else if (const auto* conv = std::get_if<ConvStage>(&stage)) {
      model.stages.emplace_back(CompiledConvStage{
          conv->ic, conv->oc, conv->k, conv->ih, conv->iw, conv->oh,
          conv->ow, export_synapse(conv->synapse)});
    } else if (const auto* pool = std::get_if<PoolStage>(&stage)) {
      model.stages.emplace_back(CompiledPoolStage{
          pool->c, pool->ih, pool->iw, pool->window, pool->oh, pool->ow});
    } else if (const auto* lut = std::get_if<LutStage>(&stage)) {
      model.stages.emplace_back(CompiledLutStage{lut->lut.kind()});
    }
  }
  return model;
}

void FixedNetwork::compile_plan() {
  // Every plan carries the activation format's raw range: the window
  // the inputs of a stage fed quantized pixels, LUT outputs or pools
  // of those lie in, which the int32 tile proof bounds them by.
  const auto window = staging_window();
  const std::int64_t in_min = window.first;
  const std::int64_t in_max = window.second;

  // The synapse runtime paths read only the plans from here on, so the
  // schedules move instead of copy — no weight is resident twice.
  for (Stage& stage : stages_) {
    if (auto* dense = std::get_if<DenseStage>(&stage)) {
      SynapseData& syn = dense->synapse;
      dense->plan_index = static_cast<int>(plans_.size());
      if (syn.scheme.multiplier == MultiplierKind::kExact) {
        plans_.push_back(man::backend::DenseLayerPlan::build_exact(
            dense->out, dense->in, std::move(syn.weights_raw),
            std::move(syn.biases_raw)));
      } else {
        syn.weights_raw.clear();
        syn.weights_raw.shrink_to_fit();
        plans_.push_back(man::backend::DenseLayerPlan::build_asm(
            dense->out, dense->in,
            static_cast<int>(syn.bank.alphabet_set().size()),
            std::move(syn.asm_weights), std::move(syn.steps),
            std::move(syn.biases_raw)));
      }
      plans_.back().in_min_raw = in_min;
      plans_.back().in_max_raw = in_max;
    } else if (auto* conv = std::get_if<ConvStage>(&stage)) {
      SynapseData& syn = conv->synapse;
      conv->plan_index = static_cast<int>(conv_plans_.size());
      if (syn.scheme.multiplier == MultiplierKind::kExact) {
        conv_plans_.push_back(man::backend::ConvLayerPlan::build_exact(
            conv->oc, conv->ic, conv->k, conv->ih, conv->iw,
            std::move(syn.weights_raw), std::move(syn.biases_raw)));
      } else {
        syn.weights_raw.clear();
        syn.weights_raw.shrink_to_fit();
        conv_plans_.push_back(man::backend::ConvLayerPlan::build_asm(
            conv->oc, conv->ic, conv->k, conv->ih, conv->iw,
            static_cast<int>(syn.bank.alphabet_set().size()),
            std::move(syn.asm_weights), std::move(syn.steps),
            std::move(syn.biases_raw)));
      }
      conv_plans_.back().in_min_raw = in_min;
      conv_plans_.back().in_max_raw = in_max;
      // One-shot register-blocking microbench: pick the vector
      // kernels' tile shapes for this geometry (construction is
      // single-threaded; the plan is immutable afterwards).
      man::backend::autotune_conv_plan(conv_plans_.back());
    }
  }
}

std::pair<std::int64_t, std::int64_t> FixedNetwork::staging_window() const {
  return {spec_.activation_format.min_raw(),
          spec_.activation_format.max_raw()};
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

void FixedNetwork::compile_synapse(SynapseData& synapse,
                                   std::span<const float> weights,
                                   std::span<const float> biases,
                                   std::uint64_t macs, int out_neurons) {
  const auto& wfmt = spec_.weight_format;
  const QuartetLayout layout(wfmt.total_bits());
  const AlphabetSet& set = synapse.scheme.effective_alphabets();
  const bool is_asm = synapse.scheme.multiplier != MultiplierKind::kExact;

  synapse.macs = macs;
  synapse.bank = man::core::PrecomputerBank(set);

  // Quantize (and constrain, for ASM schemes) every weight.
  synapse.weights_raw.reserve(weights.size());
  std::unique_ptr<WeightConstraint> constraint;
  if (is_asm) constraint = std::make_unique<WeightConstraint>(layout, set);
  for (float w : weights) {
    std::int32_t raw = wfmt.quantize(static_cast<double>(w));
    if (constraint) raw = constraint->constrain(raw);
    synapse.weights_raw.push_back(raw);
  }

  // Biases live at product scale: value·2^(wfrac+afrac).
  const int bias_shift =
      wfmt.frac_bits() + spec_.activation_format.frac_bits();
  synapse.biases_raw.reserve(biases.size());
  for (float b : biases) {
    const double scaled = static_cast<double>(b) * std::pow(2.0, bias_shift);
    synapse.biases_raw.push_back(static_cast<std::int64_t>(
        scaled >= 0 ? scaled + 0.5 : scaled - 0.5));
  }

  // Static per-inference op counts (the accumulator add per MAC).
  OpCounts& ops = synapse.ops_per_inference;
  const std::uint64_t fires_per_weight =
      weights.empty() ? 0 : macs / weights.size();

  if (!is_asm) {
    ops.adds = macs;  // accumulator adds; multiplier priced structurally
    synapse.bank_activations = 0;
    return;
  }

  // Compile the select/shift schedule of every weight.
  const auto alphabets = set.alphabets();
  synapse.asm_weights.reserve(synapse.weights_raw.size());
  for (std::int32_t raw : synapse.weights_raw) {
    AsmWeight compiled;
    compiled.step_begin = static_cast<std::uint32_t>(synapse.steps.size());
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
      synapse.steps.push_back(Step{
          lane,
          static_cast<std::uint8_t>(enc->shift + layout.quartet_shift(q))});
      ++compiled.step_count;
    }
    synapse.asm_weights.push_back(compiled);

    // Per-fire activity of this weight.
    ops.selects += compiled.step_count * fires_per_weight;
    ops.shifts += compiled.step_count * fires_per_weight;
    if (compiled.step_count > 1) {
      ops.adds += (compiled.step_count - 1) * fires_per_weight;
    }
    if (compiled.negative) ops.negates += fires_per_weight;
  }
  ops.adds += macs;  // accumulator adds

  // Hardware bank firings: the bank serves `lanes_` neurons at a time,
  // re-streaming the inputs for each neuron group (Fig 3).
  const std::uint64_t groups =
      (static_cast<std::uint64_t>(out_neurons) + lanes_ - 1) / lanes_;
  const std::uint64_t inputs_per_group =
      out_neurons == 0 ? 0 : macs / out_neurons;
  synapse.bank_activations = groups * inputs_per_group;
  ops.precomputer_adds =
      synapse.bank_activations *
      static_cast<std::uint64_t>(synapse.bank.adder_count());
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
    const auto width =
        static_cast<std::size_t>(std::get<DenseStage>(stages_[tile_begin_]).in);
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

void FixedNetwork::charge_synapse(LayerStats& layer, const SynapseData& syn,
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
  const auto& afmt = spec_.activation_format;
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
    const Stage& stage = stages_[si];
    if (const auto* dense = std::get_if<DenseStage>(&stage)) {
      std::vector<std::int64_t>& next = scratch.next;
      next.assign(static_cast<std::size_t>(dense->out), 0);
      const man::backend::DenseLayerPlan& plan =
          plans_[static_cast<std::size_t>(dense->plan_index)];

      if (plan.exact) {
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.exact_dense(plan, buffer.data(), next.data());
        });
      } else {
        // Pre-computer bank outputs for every input value (one bank
        // row per value, shared across lanes — CSHM), staged k-strided
        // plus the trailing zero slot the quartet planes point absent
        // entries at.
        std::vector<std::int64_t>& multiples = scratch.multiples;
        timed_phase(profile, &PhaseProfile::staging_s, [&] {
          multiples.resize(plan.padded_multiples());
          stage_multiples(buffer, static_cast<std::size_t>(plan.k),
                          BankRows(dense->synapse.table, dense->synapse.bank),
                          multiples.data());
          multiples[plan.zero_slot] = 0;
        });
        if (profile != nullptr) profile->staged_values += buffer.size();
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.accumulate_dense(plan, multiples.data(), next.data());
        });
      }

      charge_synapse(stats.layers[synapse_counter++], dense->synapse, 1);
      std::swap(buffer, next);
    } else if (const auto* conv = std::get_if<ConvStage>(&stage)) {
      std::vector<std::int64_t>& next = scratch.next;
      next.resize(static_cast<std::size_t>(conv->oc) * conv->oh * conv->ow);
      const man::backend::ConvLayerPlan& plan =
          conv_plans_[static_cast<std::size_t>(conv->plan_index)];

      if (plan.exact) {
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.exact_conv(plan, buffer.data(), next.data());
        });
      } else {
        // Lane-major staging (consecutive positions read consecutive
        // slots), plus the zero *region* the conv planes point absent
        // quartets at (wide enough to stay zero under every
        // per-position base offset).
        std::vector<std::int64_t>& multiples = scratch.multiples;
        timed_phase(profile, &PhaseProfile::staging_s, [&] {
          multiples.resize(plan.padded_multiples());
          stage_multiples_lane_major(
              buffer, static_cast<std::size_t>(plan.k),
              BankRows(conv->synapse.table, conv->synapse.bank),
              multiples.data());
          std::fill(multiples.begin() + plan.zero_base, multiples.end(), 0);
        });
        if (profile != nullptr) profile->staged_values += buffer.size();
        timed_phase(profile, &PhaseProfile::kernel_s, [&] {
          kernel.accumulate_conv(plan, multiples.data(), next.data());
        });
      }

      charge_synapse(stats.layers[synapse_counter++], conv->synapse, 1);
      std::swap(buffer, next);
    } else if (const auto* pool = std::get_if<PoolStage>(&stage)) {
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
    } else if (const auto* lut = std::get_if<LutStage>(&stage)) {
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
    const Stage& stage = stages_[si];
    if (const auto* dense = std::get_if<DenseStage>(&stage)) {
      // Every dense stage from tile_begin_ on is ASM and fits int32
      // lanes (plan_tile).
      const man::backend::DenseLayerPlan& plan =
          plans_[static_cast<std::size_t>(dense->plan_index)];
      // The tile starts on a cache line (the buffer carries the slack),
      // so each slot's kDenseTile int32 lanes are exactly one line.
      std::vector<std::int32_t>& buffer = scratch.tile_multiples;
      std::int32_t* multiples = nullptr;
      timed_phase(profile, &PhaseProfile::staging_s, [&] {
        buffer.resize(plan.padded_multiples() * kTile + kLineSlots - 1);
        multiples = buffer.data() + line_offset(buffer.data());
        stage_multiples_tile(
            tile, static_cast<std::size_t>(plan.k),
            BankRows(dense->synapse.table, dense->synapse.bank), multiples);
        std::fill_n(multiples + plan.zero_slot * kTile, kTile, 0);
      });
      if (profile != nullptr) profile->staged_values += tile.size();
      std::vector<std::int64_t>& next = scratch.tile_next;
      next.resize(static_cast<std::size_t>(dense->out) * kTile);
      timed_phase(profile, &PhaseProfile::kernel_s, [&] {
        kernel.accumulate_dense_tile(plan, multiples, next.data());
      });
      charge_synapse(stats.layers[synapse_counter++], dense->synapse, kTile);
      std::swap(tile, next);
    } else if (const auto* lut = std::get_if<LutStage>(&stage)) {
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
  macs.reserve(synapse_stage_indices_.size());
  for (std::size_t idx : synapse_stage_indices_) {
    if (const auto* dense = std::get_if<DenseStage>(&stages_[idx])) {
      macs.push_back(dense->synapse.macs);
    } else if (const auto* conv = std::get_if<ConvStage>(&stages_[idx])) {
      macs.push_back(conv->synapse.macs);
    }
  }
  return macs;
}

}  // namespace man::engine
