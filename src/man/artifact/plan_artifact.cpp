#include "man/artifact/plan_artifact.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "man/util/serialize.h"

namespace man::artifact {

namespace {

using man::backend::ConvLayerPlan;
using man::backend::DenseLayerPlan;
using man::backend::GroupedPlan;
using man::backend::PlanArray;
using man::engine::CompiledConvStage;
using man::engine::CompiledDenseStage;
using man::engine::CompiledLutStage;
using man::engine::CompiledModel;
using man::engine::CompiledPoolStage;
using man::engine::CompiledStage;
using man::engine::CompiledSynapse;
using man::util::BlobWriter;
using man::util::SerializationError;
using man::util::SpanReader;

// "MANPLAN1" read as a little-endian u64.
constexpr std::uint64_t kMagic = 0x314E414C504E414DULL;
constexpr std::uint32_t kHeaderSize = 64;

enum StageTag : std::uint32_t {
  kTagDense = 0,
  kTagConv = 1,
  kTagPool = 2,
  kTagLut = 3,
};

// ------------------------------------------------------------- writing

/// Appends an array to the arrays blob and writes its absolute
/// (offset, count) reference into the directory.
template <typename T>
void write_array_ref(BlobWriter& dir, BlobWriter& arrays,
                     const PlanArray<T>& values) {
  const std::uint64_t offset =
      kHeaderSize + arrays.append_array(values.data(), values.size());
  dir.write_u64(offset);
  dir.write_u64(values.size());
}

void write_synapse(BlobWriter& dir, const CompiledSynapse& synapse) {
  dir.write_i32(static_cast<std::int32_t>(synapse.scheme.multiplier));
  const auto alphabets = synapse.scheme.alphabets.alphabets();
  dir.write_u64(alphabets.size());
  for (const auto alphabet : alphabets) {
    dir.write_i32(static_cast<std::int32_t>(alphabet));
  }
  dir.write_string(synapse.name);
  dir.write_u64(synapse.macs);
  dir.write_u64(synapse.bank_activations);
  dir.write_u64(synapse.ops_per_inference.precomputer_adds);
  dir.write_u64(synapse.ops_per_inference.selects);
  dir.write_u64(synapse.ops_per_inference.shifts);
  dir.write_u64(synapse.ops_per_inference.adds);
  dir.write_u64(synapse.ops_per_inference.negates);
}

/// The fields both plan kinds share, in format order: alphabet count,
/// staging window, then the bias and group arrays.
void write_grouped(BlobWriter& dir, BlobWriter& arrays,
                   const GroupedPlan& plan) {
  dir.write_i32(plan.k);
  dir.write_i64(plan.in_min_raw);
  dir.write_i64(plan.in_max_raw);
  write_array_ref(dir, arrays, plan.biases);
  write_array_ref(dir, arrays, plan.row_groups);
  write_array_ref(dir, arrays, plan.group_begin);
  write_array_ref(dir, arrays, plan.shifts);
  write_array_ref(dir, arrays, plan.sign_masks);
  write_array_ref(dir, arrays, plan.idx);
}

void write_dense_plan(BlobWriter& dir, BlobWriter& arrays,
                      const DenseLayerPlan& plan) {
  dir.write_i32(plan.rows);
  dir.write_i32(plan.cols);
  write_grouped(dir, arrays, plan);
}

void write_conv_plan(BlobWriter& dir, BlobWriter& arrays,
                     const ConvLayerPlan& plan) {
  dir.write_i32(plan.oc);
  dir.write_i32(plan.ic);
  dir.write_i32(plan.kernel);
  dir.write_i32(plan.ih);
  dir.write_i32(plan.iw);
  dir.write_i32(plan.oh);
  dir.write_i32(plan.ow);
  dir.write_i32(plan.cols);
  write_grouped(dir, arrays, plan);
}

// ------------------------------------------------------------- reading

/// Resolves a directory (offset, count) reference to a borrowed array
/// pointing into the mapping (`file` spans the whole file).
template <typename T>
PlanArray<T> read_array_ref(SpanReader& dir, const SpanReader& file) {
  const std::uint64_t offset = dir.read_u64();
  const std::uint64_t count = dir.read_u64();
  const auto span = file.typed_span<T>(offset, count);
  return PlanArray<T>::borrow(span.data(), span.size());
}

CompiledSynapse read_synapse(SpanReader& dir) {
  CompiledSynapse synapse;
  const std::int32_t multiplier = dir.read_i32();
  if (multiplier < 0 || multiplier > 2) {
    throw SerializationError("plan artifact: bad multiplier kind");
  }
  synapse.scheme.multiplier = static_cast<man::core::MultiplierKind>(multiplier);
  const std::uint64_t alphabet_count = dir.read_u64();
  if (alphabet_count > 8) {
    throw SerializationError("plan artifact: bad alphabet count");
  }
  std::vector<int> alphabets;
  alphabets.reserve(static_cast<std::size_t>(alphabet_count));
  for (std::uint64_t i = 0; i < alphabet_count; ++i) {
    alphabets.push_back(dir.read_i32());
  }
  synapse.scheme.alphabets =
      man::core::AlphabetSet(std::span<const int>(alphabets));
  synapse.name = dir.read_string();
  synapse.macs = dir.read_u64();
  synapse.bank_activations = dir.read_u64();
  synapse.ops_per_inference.precomputer_adds = dir.read_u64();
  synapse.ops_per_inference.selects = dir.read_u64();
  synapse.ops_per_inference.shifts = dir.read_u64();
  synapse.ops_per_inference.adds = dir.read_u64();
  synapse.ops_per_inference.negates = dir.read_u64();
  return synapse;
}

// ------------------------------------------------------ load validation
//
// The checksum proves the bytes are what some writer produced, not
// that a compiler could have produced them. Everything a kernel or the
// staging indexes with is checked here or by the engine constructor
// (stage geometry), so a hostile artifact with a recomputed checksum
// throws SerializationError instead of reading or writing out of
// bounds.

[[noreturn]] void reject(const std::string& what) {
  throw SerializationError("plan artifact: " + what);
}

/// a · b, rejecting products that wrap 64 bits.
std::uint64_t checked_mul(std::uint64_t a, std::uint64_t b) {
  std::uint64_t product = 0;
  if (__builtin_mul_overflow(a, b, &product)) reject("geometry overflows");
  return product;
}

/// Offsets of a grouped plan: `offsets` starts at 0, never decreases
/// and ends at `size`.
void check_offsets(const PlanArray<std::uint32_t>& offsets, std::size_t size,
                   const char* what) {
  if (offsets.empty() || offsets[0] != 0 ||
      offsets[offsets.size() - 1] != size ||
      !std::is_sorted(offsets.begin(), offsets.end())) {
    reject(std::string("bad ") + what + " offsets");
  }
}

/// Groups of a plan of either kind: rows + 1 row offsets into the
/// groups and groups + 1 group offsets into the terms, both monotone
/// and ending at their array sizes; every term index a slot with a
/// lane (Plan::term_lane: below cols · k for dense, and for conv in
/// the buffer and in its lane under every position base); every shift
/// below kMaxShift; every sign mask 0 or -1.
template <typename Plan>
void check_groups(const Plan& plan, int rows) {
  const std::size_t groups = plan.shifts.size();
  if (plan.row_groups.size() != static_cast<std::size_t>(rows) + 1 ||
      plan.sign_masks.size() != groups ||
      plan.group_begin.size() != groups + 1) {
    reject("group arrays disagree with plan geometry");
  }
  check_offsets(plan.row_groups, groups, "row group");
  check_offsets(plan.group_begin, plan.idx.size(), "group term");
  for (const std::uint32_t slot : plan.idx) {
    if (plan.term_lane(slot) < 0) reject("term index out of range");
  }
  for (std::size_t g = 0; g < groups; ++g) {
    if (plan.shifts[g] < 0 || plan.shifts[g] >= man::backend::kMaxShift) {
      reject("group shift out of range");
    }
    if (plan.sign_masks[g] != 0 && plan.sign_masks[g] != -1) {
      reject("bad sign mask");
    }
  }
}

/// Reads the fields write_grouped() wrote.
void read_grouped(SpanReader& dir, const SpanReader& file,
                  GroupedPlan& plan) {
  plan.k = dir.read_i32();
  plan.in_min_raw = dir.read_i64();
  plan.in_max_raw = dir.read_i64();
  plan.biases = read_array_ref<std::int64_t>(dir, file);
  plan.row_groups = read_array_ref<std::uint32_t>(dir, file);
  plan.group_begin = read_array_ref<std::uint32_t>(dir, file);
  plan.shifts = read_array_ref<std::int64_t>(dir, file);
  plan.sign_masks = read_array_ref<std::int64_t>(dir, file);
  plan.idx = read_array_ref<std::uint32_t>(dir, file);
}

/// The shared fields of a plan with valid geometry: one bias per row
/// and valid groups. The engine constructor checks the alphabet count
/// k against the synapse's bank.
template <typename Plan>
void check_grouped(const Plan& plan, int rows) {
  if (plan.biases.size() != static_cast<std::size_t>(rows)) {
    reject("biases disagree with plan geometry");
  }
  check_groups(plan, rows);
}

DenseLayerPlan read_dense_plan(SpanReader& dir, const SpanReader& file) {
  DenseLayerPlan plan;
  plan.rows = dir.read_i32();
  plan.cols = dir.read_i32();
  read_grouped(dir, file, plan);
  if (plan.rows < 0 || plan.cols < 0) reject("bad dense geometry");
  check_grouped(plan, plan.rows);
  return plan;
}

ConvLayerPlan read_conv_plan(SpanReader& dir, const SpanReader& file) {
  ConvLayerPlan plan;
  plan.oc = dir.read_i32();
  plan.ic = dir.read_i32();
  plan.kernel = dir.read_i32();
  plan.ih = dir.read_i32();
  plan.iw = dir.read_i32();
  plan.oh = dir.read_i32();
  plan.ow = dir.read_i32();
  plan.cols = dir.read_i32();
  read_grouped(dir, file, plan);

  if (plan.oc < 1 || plan.ic < 1 || plan.kernel < 1 ||
      plan.ih < plan.kernel || plan.iw < plan.kernel ||
      plan.oh != plan.ih - plan.kernel + 1 ||
      plan.ow != plan.iw - plan.kernel + 1 || plan.cols < 0 ||
      static_cast<std::uint64_t>(plan.cols) !=
          checked_mul(checked_mul(static_cast<std::uint64_t>(plan.ic),
                                  static_cast<std::uint64_t>(plan.kernel)),
                      static_cast<std::uint64_t>(plan.kernel))) {
    reject("bad conv geometry");
  }
  check_grouped(plan, plan.oc);
  return plan;
}

/// Read-only shared mapping of one artifact file; the engine pins it
/// via shared_ptr for as long as any borrowed plan array lives.
class MappedBlob {
 public:
  explicit MappedBlob(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      throw SerializationError("plan artifact: cannot open " + path);
    }
    struct stat st{};
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      throw SerializationError("plan artifact: cannot stat " + path);
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ < kHeaderSize) {
      ::close(fd);
      throw SerializationError("plan artifact: truncated header in " + path);
    }
    data_ = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (data_ == MAP_FAILED) {
      throw SerializationError("plan artifact: mmap failed for " + path);
    }
  }
  MappedBlob(const MappedBlob&) = delete;
  MappedBlob& operator=(const MappedBlob&) = delete;
  ~MappedBlob() {
    if (data_ != MAP_FAILED) ::munmap(data_, size_);
  }

  [[nodiscard]] const void* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  void* data_ = MAP_FAILED;
  std::size_t size_ = 0;
};

}  // namespace

void save_engine(const man::engine::FixedNetwork& engine,
                 const std::string& path, const std::string& config_key) {
  const CompiledModel& model = engine.compiled_model();
  BlobWriter arrays;
  BlobWriter dir;

  dir.write_string(config_key);
  dir.write_i32(model.spec.weight_format.total_bits());
  dir.write_i32(model.spec.weight_format.frac_bits());
  dir.write_i32(model.spec.activation_format.total_bits());
  dir.write_i32(model.spec.activation_format.frac_bits());
  dir.write_i32(model.lanes);
  dir.write_u64(model.stages.size());

  std::size_t dense_index = 0;
  std::size_t conv_index = 0;
  for (const CompiledStage& stage : model.stages) {
    if (const auto* dense = std::get_if<CompiledDenseStage>(&stage)) {
      dir.write_u32(kTagDense);
      dir.write_i32(dense->in);
      dir.write_i32(dense->out);
      write_synapse(dir, dense->synapse);
      write_dense_plan(dir, arrays, engine.plans()[dense_index++]);
    } else if (const auto* conv = std::get_if<CompiledConvStage>(&stage)) {
      dir.write_u32(kTagConv);
      dir.write_i32(conv->ic);
      dir.write_i32(conv->oc);
      dir.write_i32(conv->k);
      dir.write_i32(conv->ih);
      dir.write_i32(conv->iw);
      dir.write_i32(conv->oh);
      dir.write_i32(conv->ow);
      write_synapse(dir, conv->synapse);
      write_conv_plan(dir, arrays, engine.conv_plans()[conv_index++]);
    } else if (const auto* pool = std::get_if<CompiledPoolStage>(&stage)) {
      dir.write_u32(kTagPool);
      dir.write_i32(pool->c);
      dir.write_i32(pool->ih);
      dir.write_i32(pool->iw);
      dir.write_i32(pool->window);
      dir.write_i32(pool->oh);
      dir.write_i32(pool->ow);
    } else if (const auto* lut = std::get_if<CompiledLutStage>(&stage)) {
      dir.write_u32(kTagLut);
      dir.write_i32(static_cast<std::int32_t>(lut->kind));
    }
  }

  // Assemble header | arrays | directory and checksum the payload.
  const std::uint64_t dir_offset = kHeaderSize + arrays.bytes().size();
  const std::uint64_t file_size = dir_offset + dir.bytes().size();
  std::vector<unsigned char> file;
  file.reserve(static_cast<std::size_t>(file_size));
  file.resize(kHeaderSize, 0);
  file.insert(file.end(), arrays.bytes().begin(), arrays.bytes().end());
  file.insert(file.end(), dir.bytes().begin(), dir.bytes().end());
  const std::uint64_t checksum = man::util::blob_checksum(
      file.data() + kHeaderSize, file.size() - kHeaderSize);

  BlobWriter header;
  header.write_u64(kMagic);
  header.write_u32(kArtifactVersion);
  header.write_u32(kHeaderSize);
  header.write_u64(file_size);
  header.write_u64(man::util::fnv1a(config_key));
  header.write_u64(checksum);
  header.write_u64(dir_offset);
  header.align(kHeaderSize);
  std::memcpy(file.data(), header.bytes().data(), kHeaderSize);

  man::util::write_file_atomic(path, file.data(), file.size());
}

std::shared_ptr<const man::engine::FixedNetwork> load_engine(
    const std::string& path, const std::string& config_key) {
  auto blob = std::make_shared<MappedBlob>(path);
  const SpanReader file(blob->data(), blob->size());

  SpanReader header(blob->data(), blob->size());
  if (header.read_u64() != kMagic) {
    throw SerializationError("plan artifact: bad magic in " + path);
  }
  const std::uint32_t version = header.read_u32();
  if (version != kArtifactVersion) {
    throw SerializationError("plan artifact: unsupported version " +
                             std::to_string(version) + " in " + path);
  }
  if (header.read_u32() != kHeaderSize) {
    throw SerializationError("plan artifact: bad header size in " + path);
  }
  const std::uint64_t file_size = header.read_u64();
  if (file_size != blob->size()) {
    throw SerializationError("plan artifact: size mismatch (truncated?) in " +
                             path);
  }
  const std::uint64_t config_hash = header.read_u64();
  const std::uint64_t checksum = header.read_u64();
  const std::uint64_t dir_offset = header.read_u64();
  if (config_hash != man::util::fnv1a(config_key)) {
    throw SerializationError("plan artifact: saved under a different config "
                             "key: " + path);
  }
  const auto* base = static_cast<const unsigned char*>(blob->data());
  if (checksum !=
      man::util::blob_checksum(base + kHeaderSize,
                               blob->size() - kHeaderSize)) {
    throw SerializationError("plan artifact: payload checksum mismatch in " +
                             path);
  }
  if (dir_offset < kHeaderSize || dir_offset > blob->size()) {
    throw SerializationError("plan artifact: bad directory offset in " + path);
  }

  SpanReader dir(base + dir_offset, blob->size() - dir_offset);
  CompiledModel model;
  std::vector<DenseLayerPlan> plans;
  std::vector<ConvLayerPlan> conv_plans;
  try {
    if (dir.read_string() != config_key) {
      throw SerializationError("plan artifact: config key mismatch in " +
                               path);
    }
    const int weight_bits = dir.read_i32();
    const int weight_frac = dir.read_i32();
    const int act_bits = dir.read_i32();
    const int act_frac = dir.read_i32();
    model.spec.weight_format = man::fixed::QFormat(weight_bits, weight_frac);
    model.spec.activation_format = man::fixed::QFormat(act_bits, act_frac);
    model.lanes = dir.read_i32();
    const std::uint64_t stage_count = dir.read_u64();
    if (stage_count > 1024) {
      throw SerializationError("plan artifact: implausible stage count");
    }
    model.stages.reserve(static_cast<std::size_t>(stage_count));
    for (std::uint64_t s = 0; s < stage_count; ++s) {
      const std::uint32_t tag = dir.read_u32();
      if (tag == kTagDense) {
        CompiledDenseStage stage;
        stage.in = dir.read_i32();
        stage.out = dir.read_i32();
        stage.synapse = read_synapse(dir);
        plans.push_back(read_dense_plan(dir, file));
        model.stages.emplace_back(std::move(stage));
      } else if (tag == kTagConv) {
        CompiledConvStage stage;
        stage.ic = dir.read_i32();
        stage.oc = dir.read_i32();
        stage.k = dir.read_i32();
        stage.ih = dir.read_i32();
        stage.iw = dir.read_i32();
        stage.oh = dir.read_i32();
        stage.ow = dir.read_i32();
        stage.synapse = read_synapse(dir);
        conv_plans.push_back(read_conv_plan(dir, file));
        model.stages.emplace_back(std::move(stage));
      } else if (tag == kTagPool) {
        CompiledPoolStage stage;
        stage.c = dir.read_i32();
        stage.ih = dir.read_i32();
        stage.iw = dir.read_i32();
        stage.window = dir.read_i32();
        stage.oh = dir.read_i32();
        stage.ow = dir.read_i32();
        model.stages.emplace_back(stage);
      } else if (tag == kTagLut) {
        // Pool geometry and the activation kind are checked by the
        // engine constructor.
        model.stages.emplace_back(CompiledLutStage{
            static_cast<man::core::ActivationKind>(dir.read_i32())});
      } else {
        throw SerializationError("plan artifact: unknown stage tag " +
                                 std::to_string(tag));
      }
    }
  } catch (const SerializationError&) {
    throw;
  } catch (const std::invalid_argument& e) {
    // Checksummed-but-inconsistent descriptors (e.g. a bad alphabet
    // value or QFormat) mean a writer bug or format drift — surface
    // them as the one error type callers fall back on.
    throw SerializationError(std::string("plan artifact: ") + e.what());
  }

  try {
    return std::make_shared<const man::engine::FixedNetwork>(
        model, std::move(plans), std::move(conv_plans), blob);
  } catch (const std::invalid_argument& e) {
    throw SerializationError(std::string("plan artifact: ") + e.what());
  }
}

std::string artifact_path(const std::string& dir,
                          const std::string& config_key) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(
                    man::util::fnv1a(config_key)));
  return dir + "/" + hex + ".plan";
}

}  // namespace man::artifact
