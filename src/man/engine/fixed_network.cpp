#include "man/engine/fixed_network.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <type_traits>

#include "man/backend/epilogue_sweep.h"
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
using man::backend::epilogue::LutSource;
using man::backend::epilogue::PixelSource;
using man::backend::epilogue::ValueSink;
using man::backend::epilogue::ValueSource;

namespace {

// Accumulators carry weight×activation products.
man::fixed::QFormat accumulator_format(const man::nn::QuantSpec& spec) {
  return man::fixed::QFormat(
      30, spec.weight_format.frac_bits() + spec.activation_format.frac_bits());
}

// Every synapse stage fed activation-format values stages from a table
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

  [[gnu::always_inline]] const std::int64_t* operator()(std::int64_t input) {
    if (table_ != nullptr) return table_->lookup(input, discard_);
    bank_->compute_into(input, row_, discard_);
    return row_;
  }

  /// The staging table, or null for a stage fed raw accumulators.
  [[nodiscard]] const man::core::PrecomputerCache* table() const {
    return table_;
  }

 private:
  const man::core::PrecomputerCache* table_;
  const man::core::PrecomputerBank* bank_;
  OpCounts discard_;
  std::int64_t row_[(AlphabetSet::kMaxAlphabetValue + 1) / 2] = {};
};

constexpr std::size_t kTile = man::backend::kDenseTile;

// ------------------------------------------------------------ epilogues
//
// An epilogue sweep reads a boundary's inputs through a Source, applies
// its segment's LUTs and pool, and hands each value on to a Sink: the
// next stage's staged bank outputs in that stage's layout, a segment
// hand-off, or the output. The sources, the pool, the lane-major sink
// and the tile slots are the scalar reference of
// man/backend/epilogue_sweep.h.

// A tile's outputs: value o = r·kTile + b is row r of sample b, which
// lands in sample b's `rows`-wide output slot.
struct TileOutputSink {
  std::int64_t* out;
  std::size_t rows;
  [[gnu::always_inline]] void operator()(std::size_t o,
                                         std::int64_t v) const {
    out[(o % kTile) * rows + o / kTile] = v;
  }
};

// Dense staging: element o's k bank outputs at [o·k, o·k + k) — the
// per-sample accumulate_dense layout.
struct DenseSink {
  BankRows rows;
  std::int64_t* multiples;
  std::size_t k;
  [[gnu::always_inline]] void operator()(std::size_t o, std::int64_t v) {
    const std::int64_t* row = rows(v);
    std::copy(row, row + k, multiples + o * k);
  }
};

// Conv staging, lane-major, from the stage's table or its bank.
template <typename Slot>
using LaneMajorSink = man::backend::epilogue::LaneMajorSink<Slot, BankRows>;

// Tile staging, sample-minor (epilogue::TileSlots), from a value order:
// one sample's elements (kOneSample: o is the element, b fixed), a
// whole tile's sample-minor values (kSampleMinor: o = i·kTile + b, as
// accumulate_dense_tile writes them), or a whole tile's images, sample
// after sample (kSampleMajor: o = b·elements + i).
enum class TileOrder { kOneSample, kSampleMinor, kSampleMajor };
template <TileOrder kOrder>
struct TileSink {
  man::backend::epilogue::TileSlots slots;
  std::size_t b = 0;         ///< kOneSample: the sample
  std::size_t elements = 0;  ///< kSampleMajor: values per sample
  [[gnu::always_inline]] void operator()(std::size_t o, std::int64_t v) {
    if constexpr (kOrder == TileOrder::kOneSample) {
      slots(o, b, v);
    } else if constexpr (kOrder == TileOrder::kSampleMinor) {
      slots(o / kTile, o % kTile, v);
    } else {
      slots(o % elements, o / elements, v);
    }
  }
};

// What one segment applies, resolved from its stage indices.
struct SegmentOps {
  const man::core::FixedActivationLut* pre = nullptr;
  const CompiledPoolStage* pool = nullptr;
  const man::core::FixedActivationLut* post = nullptr;
};

// One segment's sweep over `count` values (the input count; a pool
// segment reads its descriptor's geometry, one sample at a time).
template <typename Source, typename Sink>
void sweep_source(const SegmentOps& ops, std::size_t count, Source source,
                  Sink sink) {
  if (ops.pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) sink(i, source(i));
  } else {
    // Pool windows tile their input (the constructor checks the
    // AvgPool2D identities).
    const CompiledPoolStage& pool = *ops.pool;
    const std::size_t rows = static_cast<std::size_t>(pool.c) * pool.oh;
    const auto iw = static_cast<std::size_t>(pool.iw);
    const auto window = static_cast<std::size_t>(pool.window);
    if (window == 2) {
      man::backend::epilogue::pool_sweep<2>(rows, iw, window, ops.post,
                                            source, sink);
    } else {
      man::backend::epilogue::pool_sweep<0>(rows, iw, window, ops.post,
                                            source, sink);
    }
  }
}

// One segment: every input through `pre`, each pool window summed and
// rounded, the result through `post`, and on to `sink` in output
// order.
template <typename Source, typename Sink>
void sweep(const SegmentOps& ops, std::size_t count, Source source,
           Sink sink) {
  if (ops.pre != nullptr) {
    sweep_source(ops, count, LutSource<Source>{source, ops.pre->raw_path()},
                 sink);
  } else {
    sweep_source(ops, count, source, sink);
  }
}

// int16 tile lanes per 64-byte cache line (one slot's kTile samples),
// and how many lanes past `p` the next line starts.
constexpr std::size_t kLineSlots = 64 / sizeof(std::int16_t);
static_assert(kLineSlots == kTile);
std::size_t line_offset(const std::int16_t* p) {
  const auto lane = reinterpret_cast<std::uintptr_t>(p) / sizeof(std::int16_t);
  return (kLineSlots - lane % kLineSlots) % kLineSlots;
}

// `buffer` grown to hold at least `n` values. Scratch buffers never
// shrink: every reader reads only values its stage wrote, so the zero
// fill of a regrowth between a wide and a narrow stage would be waste.
template <typename T>
T* sized(std::vector<T>& buffer, std::size_t n) {
  if (buffer.size() < n) buffer.resize(n);
  return buffer.data();
}

// `slots` sample-minor tile slots of `buffer`, starting on a cache line
// (the buffer carries the slack), so each slot's kTile int16 lanes are
// exactly one line. Until the buffer grows, it returns the same
// pointer.
std::int16_t* tile_slots(std::vector<std::int16_t>& buffer,
                         std::size_t slots) {
  std::int16_t* data = sized(buffer, slots * kTile + kLineSlots - 1);
  return data + line_offset(data);
}

// The segment shapes a kernel backend may sweep, each from a staging
// table: one sample into a conv stage's int32 lane-major slots (the
// input image quantized, or a LUT then a 2×2 pool), and a whole tile
// into a dense tile's sample-minor slots (the tile's images quantized,
// or its accumulators through a LUT). False for every other shape
// (raw-fed stages, other windows, a LUT after the pool, int64 conv
// lanes, every other sink) and wherever the backend declines; the
// caller then runs the reference sweep, which throws at the first
// staged value outside the table's window.
template <typename Source, typename Sink>
bool backend_sweep(const SegmentOps& ops, std::size_t samples,
                   std::size_t count, Source source, Sink& sink,
                   const man::backend::KernelBackend& kernel) {
  constexpr bool kPixels = std::is_same_v<Source, PixelSource>;
  const bool no_pool = ops.pool == nullptr && ops.post == nullptr;
  const bool plain = ops.pre == nullptr && no_pool;
  const bool lut_only = ops.pre != nullptr && no_pool;
  if constexpr (std::is_same_v<Sink, LaneMajorSink<std::int32_t>>) {
    const man::core::PrecomputerCache* table = sink.rows.table();
    if (table == nullptr || samples != 1) return false;
    if constexpr (kPixels) {
      if (!plain) return false;
      return kernel.stage_pixels({source.pixels, count}, source.format,
                                 table->view(), sink.multiples, sink.stride);
    } else {
      if (ops.pre == nullptr || ops.pool == nullptr ||
          ops.pool->window != 2 || ops.post != nullptr) {
        return false;
      }
      return kernel.lut_pool2_stage(
          source.values, {ops.pool->c, ops.pool->oh, ops.pool->ow},
          ops.pre->raw_path(), table->view(), sink.multiples, sink.stride);
    }
  } else if constexpr (kPixels &&
                       std::is_same_v<Sink, TileSink<TileOrder::kSampleMajor>>) {
    if (samples != kTile || !plain) return false;
    return kernel.stage_pixels_tile({source.pixels, count}, source.format,
                                    sink.slots.window, sink.slots.tile);
  } else if constexpr (std::is_same_v<Source, ValueSource> &&
                       std::is_same_v<Sink, TileSink<TileOrder::kSampleMinor>>) {
    if (samples != kTile || !lut_only) return false;
    return kernel.lut_stage_tile(source.values, count / kTile,
                                 ops.pre->raw_path(), sink.slots.window,
                                 sink.slots.tile);
  } else {
    return false;
  }
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

// One synapse layer, lowered: each weight's select/shift schedule for
// build_asm(), which consumes it; biases at product scale. Transient:
// lower() builds the layer's plan from it before it lowers the next
// layer.
struct SynapseSchedule {
  std::vector<man::backend::AsmWeight> encoded;
  std::vector<man::backend::AsmStep> steps;
  std::vector<std::int64_t> biases;
};

// Quantizes and constrains every weight of one synapse layer and
// encodes it into quartet steps, pricing `syn`'s static per-inference
// activity from the schedule as it goes. A conventional layer encodes
// over the full set, under which the constraint is the identity and
// every quartet has an alphabet, so its plan computes W·I exactly; it
// is priced structurally as the multiplier it stands for: accumulator
// adds only, and the bank never fires.
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
  const bool exact = syn.scheme.multiplier == MultiplierKind::kExact;

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
    if (exact) continue;

    // Per-fire activity of this weight.
    ops.selects += compiled.step_count * fires_per_weight;
    ops.shifts += compiled.step_count * fires_per_weight;
    if (compiled.step_count > 1) {
      ops.adds += (compiled.step_count - 1) * fires_per_weight;
    }
    if (compiled.negative) ops.negates += fires_per_weight;
  }
  if (exact) return schedule;

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
      out.plans.push_back(with_window(
          man::backend::DenseLayerPlan::build_asm(
              stage.out, stage.in, alphabet_count(stage.synapse),
              std::move(s.encoded), std::move(s.steps), std::move(s.biases)),
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
      out.conv_plans.push_back(with_window(
          man::backend::ConvLayerPlan::build_asm(
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
  // A plan stages k bank outputs per input, one per lane of its
  // synapse's bank, whose table rows are that many lanes wide.
  const auto check_plan = [&](const auto& plan, const CompiledSynapse& syn,
                              bool geometry_matches, const char* kind) {
    if (!geometry_matches) {
      throw std::invalid_argument(std::string("FixedNetwork: ") + kind +
                                  " plan disagrees with its stage descriptor");
    }
    if (static_cast<std::size_t>(plan.k) !=
        syn.scheme.effective_alphabets().size()) {
      throw std::invalid_argument(
          std::string("FixedNetwork: ") + kind + " plan stages " +
          std::to_string(plan.k) + " alphabets, its bank has " +
          std::to_string(syn.scheme.effective_alphabets().size()));
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
  link_epilogues();
  plan_lanes();
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

void FixedNetwork::link_epilogues() {
  constexpr std::size_t kNone = Segment::kNoStage;
  epilogues_.clear();
  std::size_t size = input_size_;  // values crossing the boundary so far
  Epilogue epilogue;
  Segment segment{kNone, kNone, kNone, size, size};
  const auto close_segment = [&] {
    epilogue.segments.push_back(segment);
    segment = Segment{kNone, kNone, kNone, size, size};
  };
  // A LUT before the segment's pool applies to its inputs, one after
  // it to the pooled values.
  const auto lut_slot = [&]() -> std::size_t& {
    return segment.pool == kNone ? segment.pre : segment.post;
  };
  const auto close_epilogue = [&](std::size_t stage) {
    close_segment();
    epilogue.stage = stage;
    epilogue.out_size = size;
    for (const Segment& seg : epilogue.segments) {
      if (seg.pre != kNone) epilogue.lut_values += seg.in_size;
      if (seg.post != kNone) epilogue.lut_values += seg.out_size;
      epilogue.pools = epilogue.pools || seg.pool != kNone;
    }
    if (epilogue.pools) {
      epilogue.phase = &PhaseProfile::pool_s;
    } else if (epilogue.lut_values > 0) {
      epilogue.phase = &PhaseProfile::lut_s;
    } else {
      epilogue.phase = &PhaseProfile::staging_s;
    }
    epilogues_.push_back(std::move(epilogue));
    epilogue = Epilogue{};
  };
  for (std::size_t si = 0; si < model_.stages.size(); ++si) {
    const CompiledStage& stage = model_.stages[si];
    if (const auto* pool = std::get_if<CompiledPoolStage>(&stage)) {
      if (segment.pool != kNone) close_segment();
      segment.pool = si;
      size = static_cast<std::size_t>(pool->c) * pool->oh * pool->ow;
      segment.out_size = size;
    } else if (std::holds_alternative<CompiledLutStage>(stage)) {
      if (lut_slot() != kNone) close_segment();  // two LUTs in a row
      lut_slot() = si;
    } else {
      close_epilogue(si);
      if (const auto* dense = std::get_if<CompiledDenseStage>(&stage)) {
        size = static_cast<std::size_t>(dense->out);
      } else {
        const auto& conv = std::get<CompiledConvStage>(stage);
        size = static_cast<std::size_t>(conv.oc) * conv.oh * conv.ow;
      }
      segment = Segment{kNone, kNone, kNone, size, size};
    }
  }
  close_epilogue(stages_.size());
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

void FixedNetwork::plan_lanes() {
  // Where a batch tile forms: the first dense stage of the longest
  // trailing run of LUT stages and dense stages whose plans pass both
  // tile proofs, rows in int32 and slots in int16 (the MLP's whole
  // network, LeNet's fully connected tail). The proofs assume every
  // input lies in the staging window, so a dense stage fed raw
  // accumulators ends the run too. Everything before the run stays
  // per sample on the int64 kernels.
  tile_begin_ = stages_.size();
  for (std::size_t i = stages_.size(); i-- > 0;) {
    if (std::holds_alternative<CompiledDenseStage>(model_.stages[i])) {
      auto& syn = std::get<SynapseStage>(stages_[i]);
      const auto& plan = plans_[syn.plan_index];
      const auto alphabets = syn.bank.alphabet_set().alphabets();
      const int chunk = man::backend::int16_tile_chunk(plan);
      if (chunk < 1 || !input_in_window(i) ||
          man::backend::int32_row_bound(plan, alphabets) >=
              man::backend::kInt32RowOverflow) {
        break;
      }
      syn.tile_chunk = chunk;
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
    if (syn == nullptr || !input_in_window(i)) continue;
    syn->table.emplace(syn->bank);
    syn->table->configure_range(in_min, in_max);
  }
}

std::pair<std::int64_t, std::int64_t> FixedNetwork::staging_window() const {
  return {model_.spec.activation_format.min_raw(),
          model_.spec.activation_format.max_raw()};
}

FixedNetwork::InferScratch FixedNetwork::make_scratch() const {
  return InferScratch{};
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
  const std::size_t synapses = epilogues_.size() - 1;
  std::size_t s = 0;
  if (tile_synapse_begin_ < synapses) {
    // Full tiles. A tile that starts at the input (pool-free, as every
    // epilogue run over more than one sample) stages its kTile images
    // in one sweep; otherwise each sample runs the stages before the
    // tile alone, and its epilogue stages it into its lane of the
    // sample-minor tile.
    const std::size_t j = tile_synapse_begin_;
    const auto& syn = std::get<SynapseStage>(stages_[epilogues_[j].stage]);
    const man::backend::DenseLayerPlan& plan = plans_[syn.plan_index];
    const bool whole_tile = j == 0 && !epilogues_[0].pools;
    for (; s + kTile <= count; s += kTile) {
      const man::backend::epilogue::TileSlots slots{
          syn.table->view(),
          tile_slots(scratch.tile_inputs, static_cast<std::size_t>(plan.cols))};
      if (whole_tile) {
        run_epilogue(j, kTile,
                     PixelSource{pixels.data() + s * input_size_,
                                 model_.spec.activation_format},
                     TileSink<TileOrder::kSampleMajor>{slots, 0, input_size_},
                     scratch, kernel);
      } else {
        for (std::size_t b = 0; b < kTile; ++b) {
          forward_sample(sample(s + b), j, stats, scratch, kernel);
          feed(j, sample(s + b), TileSink<TileOrder::kOneSample>{slots, b},
               scratch, kernel);
        }
      }
      forward_tile(out.subspan(s * output_size_, kTile * output_size_), stats,
                   scratch, kernel);
      stats.inferences += kTile;
    }
  }
  // The remainder (and every sample of an engine without a tile) runs
  // the whole network one sample at a time.
  for (; s < count; ++s) {
    forward_sample(sample(s), synapses, stats, scratch, kernel);
    feed(synapses, sample(s), ValueSink{out.data() + s * output_size_},
         scratch, kernel);
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

template <typename Source, typename Sink>
void FixedNetwork::run_epilogue(
    std::size_t j, std::size_t samples, Source source, Sink sink,
    InferScratch& scratch, const man::backend::KernelBackend& kernel) const {
  const Epilogue& epilogue = epilogues_[j];
  const auto lut = [&](std::size_t stage) {
    return stage == Segment::kNoStage
               ? nullptr
               : &std::get<LutStage>(stages_[stage]).lut;
  };
  const auto ops = [&](const Segment& seg) {
    const CompiledPoolStage* pool =
        seg.pool == Segment::kNoStage
            ? nullptr
            : &std::get<CompiledPoolStage>(model_.stages[seg.pool]);
    return SegmentOps{lut(seg.pre), pool, lut(seg.post)};
  };
  PhaseProfile* const profile = scratch.profile;
  timed_phase(profile, epilogue.phase, [&] {
    const std::vector<Segment>& segments = epilogue.segments;
    const Segment& last = segments.back();
    if (segments.size() == 1) {
      const SegmentOps last_ops = ops(last);
      const std::size_t count = last.in_size * samples;
      if (backend_sweep(last_ops, samples, count, source, sink, kernel)) {
        return;
      }
      sweep(last_ops, count, source, sink);
      return;
    }
    // Every segment but the last hands its int64 values on through the
    // two hop buffers in turn.
    std::vector<std::int64_t>* hops = scratch.hops;
    sweep(ops(segments[0]), segments[0].in_size * samples, source,
          ValueSink{sized(hops[0], segments[0].out_size * samples)});
    std::size_t from = 0;
    for (std::size_t g = 1; g + 1 < segments.size(); ++g, from ^= 1) {
      sweep(ops(segments[g]), segments[g].in_size * samples,
            ValueSource{hops[from].data()},
            ValueSink{sized(hops[from ^ 1], segments[g].out_size * samples)});
    }
    sweep(ops(last), last.in_size * samples, ValueSource{hops[from].data()},
          sink);
  });
  if (profile != nullptr) {
    profile->lut_values += epilogue.lut_values * samples;
    if (epilogue.stage < stages_.size()) {  // feeds a stage's staging
      profile->staged_values += epilogue.out_size * samples;
    }
  }
}

template <typename Sink>
void FixedNetwork::feed(std::size_t j, std::span<const float> pixels,
                        Sink sink, InferScratch& scratch,
                        const man::backend::KernelBackend& kernel) const {
  if (j == 0) {
    run_epilogue(j, 1,
                 PixelSource{pixels.data(), model_.spec.activation_format},
                 sink, scratch, kernel);
  } else {
    run_epilogue(j, 1, ValueSource{scratch.acc.data()}, sink, scratch,
                 kernel);
  }
}

void FixedNetwork::forward_sample(std::span<const float> pixels,
                                  std::size_t synapse_end, EngineStats& stats,
                                  InferScratch& scratch,
                                  const man::backend::KernelBackend& kernel)
    const {
  PhaseProfile* const profile = scratch.profile;
  std::vector<std::int64_t>& acc = scratch.acc;
  for (std::size_t j = 0; j < synapse_end; ++j) {
    const std::size_t si = epilogues_[j].stage;
    const auto& syn = std::get<SynapseStage>(stages_[si]);
    const BankRows rows(syn.table, syn.bank);
    // The epilogue reads acc and stages this stage's input; the kernel
    // then overwrites acc.
    if (const auto* dense =
            std::get_if<CompiledDenseStage>(&model_.stages[si])) {
      const man::backend::DenseLayerPlan& plan = plans_[syn.plan_index];
      feed(j, pixels,
           DenseSink{rows, sized(scratch.multiples, plan.padded_multiples()),
                     static_cast<std::size_t>(plan.k)},
           scratch, kernel);
      std::int64_t* out = sized(acc, static_cast<std::size_t>(dense->out));
      timed_phase(profile, &PhaseProfile::kernel_s, [&] {
        kernel.accumulate_dense(plan, scratch.multiples.data(), out);
      });
      charge_synapse(stats.layers[j], dense->synapse, 1);
    } else {
      const auto& conv = std::get<CompiledConvStage>(model_.stages[si]);
      const man::backend::ConvLayerPlan& plan = conv_plans_[syn.plan_index];
      const auto k = static_cast<std::size_t>(plan.k);
      const std::size_t stride = epilogues_[j].out_size;
      const std::size_t slots = plan.padded_multiples();
      if (conv_int32_lanes_[syn.plan_index]) {
        feed(j, pixels,
             LaneMajorSink<std::int32_t>{
                 rows, sized(scratch.multiples32, slots), k, stride},
             scratch, kernel);
      } else {
        feed(j, pixels,
             LaneMajorSink<std::int64_t>{rows, sized(scratch.multiples, slots),
                                         k, stride},
             scratch, kernel);
      }
      std::int64_t* out =
          sized(acc, static_cast<std::size_t>(conv.oc) * conv.oh * conv.ow);
      timed_phase(profile, &PhaseProfile::kernel_s, [&] {
        if (conv_int32_lanes_[syn.plan_index]) {
          kernel.accumulate_conv_int32(plan, scratch.multiples32.data(), out);
        } else {
          kernel.accumulate_conv(plan, scratch.multiples.data(), out);
        }
      });
      charge_synapse(stats.layers[j], conv.synapse, 1);
    }
  }
}

void FixedNetwork::forward_tile(std::span<std::int64_t> out,
                                EngineStats& stats, InferScratch& scratch,
                                const man::backend::KernelBackend& kernel)
    const {
  PhaseProfile* const profile = scratch.profile;
  const std::size_t synapses = epilogues_.size() - 1;
  for (std::size_t j = tile_synapse_begin_; j < synapses; ++j) {
    // Every synapse stage from the tile on is a dense stage that
    // passes both tile proofs, fed from the staging window
    // (plan_lanes), so its epilogue holds LUTs and no pool.
    const std::size_t si = epilogues_[j].stage;
    const auto& dense = std::get<CompiledDenseStage>(model_.stages[si]);
    const auto& syn = std::get<SynapseStage>(stages_[si]);
    const auto& plan = plans_[syn.plan_index];
    const std::int16_t* inputs =
        tile_slots(scratch.tile_inputs, static_cast<std::size_t>(plan.cols));
    std::int64_t* acc =
        sized(scratch.tile_acc, static_cast<std::size_t>(dense.out) * kTile);
    timed_phase(profile, &PhaseProfile::kernel_s, [&] {
      kernel.accumulate_dense_tile(plan, syn.bank.alphabet_set().alphabets(),
                                   syn.tile_chunk, inputs, acc);
    });
    charge_synapse(stats.layers[j], dense.synapse, kTile);
    if (j + 1 == synapses) {
      run_epilogue(j + 1, kTile, ValueSource{acc},
                   TileOutputSink{out.data(), output_size_}, scratch, kernel);
    } else {
      const std::size_t next = epilogues_[j + 1].stage;
      const auto& next_syn = std::get<SynapseStage>(stages_[next]);
      const auto& next_plan = plans_[next_syn.plan_index];
      run_epilogue(j + 1, kTile, ValueSource{acc},
                   TileSink<TileOrder::kSampleMinor>{
                       {next_syn.table->view(),
                        tile_slots(scratch.tile_inputs,
                                   static_cast<std::size_t>(next_plan.cols))}},
                   scratch, kernel);
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
