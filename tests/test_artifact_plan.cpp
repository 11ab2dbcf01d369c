// Plan-artifact save/load: the mmap'ed engine must be bit-identical
// to the compiled one through every kernel backend, dense and conv,
// at both paper weight widths — and every corruption mode (torn
// file, flipped payload byte, version bump, wrong config key) must be
// rejected with SerializationError, never served; so must a plan whose
// checksum was recomputed over hostile contents. Also exercises the
// EngineCache disk tier, including fallback from a corrupt artifact
// to a fresh compile + republish, and the atomic-publish guarantee
// under an interleaved reader.
#include "man/artifact/plan_artifact.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "man/apps/app_registry.h"
#include "man/backend/kernel_backend.h"
#include "man/engine/batch_runner.h"
#include "man/engine/fixed_network.h"
#include "man/nn/activation_layer.h"
#include "man/nn/constraint_projection.h"
#include "man/nn/conv2d.h"
#include "man/nn/dense.h"
#include "man/nn/pool.h"
#include "man/serve/engine_cache.h"
#include "man/util/rng.h"
#include "man/util/serialize.h"

namespace man::artifact {
namespace {

using man::backend::all_backends;
using man::backend::backend_for;
using man::backend::BackendKind;
using man::backend::ConvLayerPlan;
using man::backend::DenseLayerPlan;
using man::core::AlphabetSet;
using man::engine::FixedNetwork;
using man::engine::LayerAlphabetPlan;
using man::nn::ActivationLayer;
using man::nn::AvgPool2D;
using man::nn::Conv2D;
using man::nn::Dense;
using man::nn::Network;
using man::nn::ProjectionPlan;
using man::nn::QuantSpec;
using man::util::SerializationError;

Network make_mlp(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Dense>(16, 8).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<Dense>(8, 4).init_xavier(rng);
  return net;
}

Network make_cnn(std::uint64_t seed) {
  man::util::Rng rng(seed);
  Network net;
  net.add<Conv2D>(1, 3, 3, 8, 8).init_xavier(rng);
  net.add<ActivationLayer>(man::core::ActivationKind::kSigmoid);
  net.add<AvgPool2D>(3, 6, 6, 2);
  net.add<Dense>(27, 5).init_xavier(rng);
  return net;
}

/// Compiles an ASM engine over the four-alphabet set (or the
/// conventional baseline when `alphabets` is 0).
FixedNetwork compile(Network net, int bits, std::size_t alphabets) {
  const QuantSpec spec = QuantSpec::for_bits(bits);
  if (alphabets == 0) {
    return FixedNetwork(net, spec,
                        LayerAlphabetPlan::conventional(net.num_weight_layers()));
  }
  const AlphabetSet set = AlphabetSet::first_n(alphabets);
  const ProjectionPlan projection(spec, set, net.num_weight_layers());
  projection.project_network(net);
  return FixedNetwork(
      net, spec, LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
}

std::vector<float> make_pixels(std::size_t n, std::uint64_t seed) {
  man::util::Rng rng(seed);
  std::vector<float> pixels(n);
  for (float& p : pixels) {
    p = static_cast<float>(rng.next_double() * 2.0 - 1.0);
  }
  return pixels;
}

std::vector<std::int64_t> infer_raw(const FixedNetwork& engine,
                                    const std::vector<float>& pixels,
                                    const man::backend::KernelBackend& kernel) {
  auto scratch = engine.make_scratch();
  auto stats = engine.make_stats();
  std::vector<std::int64_t> raw(engine.output_size());
  engine.infer_into(pixels, raw, stats, scratch, kernel);
  return raw;
}

class PlanArtifactTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("man_plan_artifact_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

// The acceptance bar: for dense and conv engines at both paper
// widths, a loaded artifact produces bit-identical raw accumulators
// through every registered backend.
class PlanArtifactBitIdentity : public ::testing::TestWithParam<int> {
 protected:
  std::filesystem::path dir_ = std::filesystem::temp_directory_path() /
                               ("man_plan_artifact_bits_" +
                                std::to_string(::getpid()));
};

TEST_P(PlanArtifactBitIdentity, LoadedEngineMatchesEveryBackend) {
  const int bits = GetParam();
  std::filesystem::create_directories(dir_);
  struct Case {
    const char* label;
    Network net;
    std::size_t input;
    std::size_t alphabets;
  };
  Case cases[] = {
      {"mlp_asm4", make_mlp(100 + static_cast<std::uint64_t>(bits)), 16, 4},
      {"mlp_exact", make_mlp(200 + static_cast<std::uint64_t>(bits)), 16, 0},
      {"cnn_asm4", make_cnn(300 + static_cast<std::uint64_t>(bits)), 64, 4},
      {"cnn_exact", make_cnn(400 + static_cast<std::uint64_t>(bits)), 64, 0},
  };
  for (auto& c : cases) {
    const FixedNetwork original(compile(std::move(c.net), bits, c.alphabets));
    const std::string key = std::string(c.label) + "|bits=" +
                            std::to_string(bits);
    const std::string file = artifact_path(dir_.string(), key);
    save_engine(original, file, key);
    const auto loaded = load_engine(file, key);

    const auto pixels =
        make_pixels(c.input, 500 + static_cast<std::uint64_t>(bits));
    const auto reference =
        infer_raw(original, pixels, backend_for(BackendKind::kScalar));
    for (const auto* backend : all_backends()) {
      EXPECT_EQ(infer_raw(*loaded, pixels, *backend), reference)
          << c.label << " bits=" << bits << " backend=" << backend->name();
    }
  }
  std::filesystem::remove_all(dir_);
}

INSTANTIATE_TEST_SUITE_P(PaperWidths, PlanArtifactBitIdentity,
                         ::testing::Values(8, 12));

// Conventional engines of the apps' networks are full-alphabet grouped
// plans like any other: the LeNet CNN (conv stages) and the SVHN MLP
// (six dense stages, tiled) each round-trip through an artifact, and
// the loaded engine serves 2·kDenseTile + 3 samples bit-identically on
// every backend.
TEST_F(PlanArtifactTest, ConventionalAppEnginesRoundTripBitIdentically) {
  using man::apps::AppId;
  for (const AppId id : {AppId::kDigitCnn12, AppId::kSvhnMlp8}) {
    const auto& app = man::apps::get_app(id);
    Network net = app.build_network(/*seed=*/21);
    const FixedNetwork original(
        net, app.quant(),
        LayerAlphabetPlan::conventional(net.num_weight_layers()));
    const std::string file = path("conventional.plan");
    save_engine(original, file, app.name);
    const auto loaded = load_engine(file, app.name);
    EXPECT_EQ(loaded->tile_begin(), original.tile_begin()) << app.name;
    ASSERT_EQ(loaded->conv_plans().size(), original.conv_plans().size());
    for (std::size_t c = 0; c < original.conv_plans().size(); ++c) {
      EXPECT_EQ(loaded->conv_int32_lanes(c), original.conv_int32_lanes(c));
    }

    const std::size_t count = 2 * man::backend::kDenseTile + 3;
    const auto pixels = make_pixels(count * original.input_size(), 31);
    std::vector<std::int64_t> reference(count * original.output_size());
    auto stats = original.make_stats();
    auto scratch = original.make_scratch();
    original.infer_batch(pixels, reference, stats, scratch,
                         backend_for(BackendKind::kScalar));
    for (const auto* backend : all_backends()) {
      std::vector<std::int64_t> raw(reference.size());
      auto loaded_stats = loaded->make_stats();
      auto loaded_scratch = loaded->make_scratch();
      loaded->infer_batch(pixels, raw, loaded_stats, loaded_scratch,
                          *backend);
      EXPECT_EQ(raw, reference) << app.name << " backend=" << backend->name();
    }
  }
}

TEST_F(PlanArtifactTest, TruncatedFileRejected) {
  const FixedNetwork engine(compile(make_mlp(1), 8, 4));
  const std::string file = path("engine.plan");
  save_engine(engine, file, "key");
  const auto full_size = std::filesystem::file_size(file);
  std::filesystem::resize_file(file, full_size - 1);
  EXPECT_THROW((void)load_engine(file, "key"), SerializationError);
  std::filesystem::resize_file(file, 16);  // torn mid-header
  EXPECT_THROW((void)load_engine(file, "key"), SerializationError);
}

TEST_F(PlanArtifactTest, FlippedPayloadByteRejected) {
  const FixedNetwork engine(compile(make_mlp(2), 8, 4));
  const std::string file = path("engine.plan");
  save_engine(engine, file, "key");
  const auto full_size = std::filesystem::file_size(file);
  {
    std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(static_cast<std::streamoff>(full_size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(full_size / 2));
    f.write(&byte, 1);
  }
  EXPECT_THROW((void)load_engine(file, "key"), SerializationError);
}

// Older (version 1 still carried the AoS schedule, version 2 the
// per-plan conv tile shapes, version 3 the dense quartet planes,
// version 4 the conv ones, version 5 the exact weights and conv patch
// offsets, version 6 dense groups that mixed bank lanes) and newer
// formats alike.
TEST_F(PlanArtifactTest, VersionBumpRejected) {
  static_assert(kArtifactVersion == 7);
  const FixedNetwork engine(compile(make_mlp(3), 8, 4));
  const std::string file = path("engine.plan");
  for (const std::uint32_t version :
       {1u, 2u, 3u, 4u, 5u, 6u, kArtifactVersion + 1}) {
    save_engine(engine, file, "key");
    {
      // The version field sits at byte 8, right after the magic.
      std::fstream f(file, std::ios::binary | std::ios::in | std::ios::out);
      f.seekp(8);
      f.write(reinterpret_cast<const char*>(&version), sizeof version);
    }
    EXPECT_THROW((void)load_engine(file, "key"), SerializationError)
        << "version " << version;
  }
}

TEST_F(PlanArtifactTest, WrongConfigKeyAndMissingFileRejected) {
  const FixedNetwork engine(compile(make_mlp(4), 8, 4));
  const std::string file = path("engine.plan");
  save_engine(engine, file, "key-a");
  EXPECT_THROW((void)load_engine(file, "key-b"), SerializationError);
  EXPECT_THROW((void)load_engine(path("absent.plan"), "key-a"),
               SerializationError);
}

/// A saved artifact's bytes, patched in place and written back with a
/// recomputed payload checksum — so the loader's content checks, not
/// the checksum, are all that stands between a patch and the kernels.
class ArtifactBytes {
 public:
  explicit ArtifactBytes(const std::string& file) : file_(file) {
    std::ifstream in(file, std::ios::binary);
    bytes_.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
  }

  /// Offset of the only occurrence of `n` bytes at `pattern`.
  [[nodiscard]] std::size_t find(const void* pattern, std::size_t n) const {
    const auto* p = static_cast<const char*>(pattern);
    const auto at = std::search(bytes_.begin(), bytes_.end(), p, p + n);
    if (at == bytes_.end() ||
        std::search(at + 1, bytes_.end(), p, p + n) != bytes_.end()) {
      throw std::logic_error("field pattern not found exactly once");
    }
    return static_cast<std::size_t>(at - bytes_.begin());
  }
  template <typename T>
  [[nodiscard]] std::size_t find(const std::vector<T>& values) const {
    return find(values.data(), values.size() * sizeof(T));
  }

  [[nodiscard]] const std::vector<char>& bytes() const { return bytes_; }

  template <typename T>
  [[nodiscard]] T get(std::size_t at) const {
    T value;
    std::memcpy(&value, bytes_.data() + at, sizeof value);
    return value;
  }
  template <typename T>
  void put(std::size_t at, T value) {
    std::memcpy(bytes_.data() + at, &value, sizeof value);
  }

  /// Restamps the checksum (header bytes 32..40) and writes the file.
  void save() {
    put<std::uint64_t>(32, man::util::blob_checksum(bytes_.data() + 64,
                                                    bytes_.size() - 64));
    std::ofstream(file_, std::ios::binary)
        .write(bytes_.data(), static_cast<std::streamsize>(bytes_.size()));
  }

 private:
  std::string file_;
  std::vector<char> bytes_;
};

// An artifact is a function of the network and its compile settings
// only: two compiles of the same network in one process save
// byte-identical files (nothing timed at build time, such as a
// measured conv tile, may reach the file, and the dense groups are
// ordered deterministically).
TEST_F(PlanArtifactTest, SameNetworkSavesByteIdenticalArtifacts) {
  const FixedNetwork first(compile(make_cnn(8), 8, 4));
  const FixedNetwork second(compile(make_cnn(8), 8, 4));
  ASSERT_EQ(first.conv_plans().size(), 1u);
  ASSERT_TRUE(first.conv_int32_lanes(0));
  const FixedNetwork first_mlp(compile(make_mlp(8), 12, 4));
  const FixedNetwork second_mlp(compile(make_mlp(8), 12, 4));
  const std::pair<const FixedNetwork*, const FixedNetwork*> pairs[] = {
      {&first, &second}, {&first_mlp, &second_mlp}};
  for (const auto& [a_engine, b_engine] : pairs) {
    save_engine(*a_engine, path("first.plan"), "key");
    save_engine(*b_engine, path("second.plan"), "key");
    const ArtifactBytes a(path("first.plan"));
    const ArtifactBytes b(path("second.plan"));
    ASSERT_FALSE(a.bytes().empty());
    EXPECT_TRUE(a.bytes() == b.bytes());
  }
}

/// The arrays of a plan, in format order: both kinds' six, then a
/// dense plan's bank lanes.
enum Array {
  kBiases,
  kRowGroups,
  kGroupBegin,
  kShifts,
  kSigns,
  kIdx,
  kLanes,
  kPlanArrays
};

/// Where one plan's fields sit in its artifact: the directory's scalar
/// block (the plan's leading i32 fields, in format order), the staging
/// window after it, and each array's first byte and element count,
/// read from the directory's (offset, count) references that follow.
struct PlanFields {
  std::size_t scalars = 0;
  std::size_t window = 0;  ///< in_min_raw, then in_max_raw
  std::size_t at[kPlanArrays] = {};
  std::size_t count[kPlanArrays] = {};
};

/// Found by the scalars and the window together, which no other
/// stretch of the file repeats.
PlanFields locate(const ArtifactBytes& bytes,
                  std::vector<std::int32_t> scalars,
                  const man::backend::GroupedPlan& plan, int arrays) {
  PlanFields fields;
  const std::size_t words = scalars.size();
  for (const std::int64_t bound : {plan.in_min_raw, plan.in_max_raw}) {
    std::int32_t halves[2];
    std::memcpy(halves, &bound, sizeof bound);
    scalars.push_back(halves[0]);
    scalars.push_back(halves[1]);
  }
  fields.scalars = bytes.find(scalars);
  fields.window = fields.scalars + 4 * words;
  for (int a = 0; a < arrays; ++a) {
    const std::size_t ref =
        fields.window + 16 + 16 * static_cast<std::size_t>(a);
    fields.at[a] = bytes.get<std::uint64_t>(ref);
    fields.count[a] = bytes.get<std::uint64_t>(ref + 8);
  }
  return fields;
}

PlanFields locate_dense(const ArtifactBytes& bytes, const DenseLayerPlan& p) {
  return locate(bytes, {p.rows, p.cols, p.k}, p, kPlanArrays);
}

PlanFields locate_conv(const ArtifactBytes& bytes, const ConvLayerPlan& p) {
  return locate(bytes,
                {p.oc, p.ic, p.kernel, p.ih, p.iw, p.oh, p.ow, p.cols, p.k}, p,
                kLanes);
}

// Loader content checks: each field a kernel or the staging indexes
// with is patched to a value no compiler emits, the checksum is
// recomputed, and the load must throw SerializationError. Without the
// checks, inference on such a plan reads past a buffer (term indices
// and group offsets, a conv term whose reads leave its lane, pool
// windows, an alphabet count other than the bank's — conventional
// stages' 8 included),
// shifts by 32 or more or by a negative amount (UB in the int32
// lanes), lets the backends disagree (sign masks, a dense term slot
// off its group's bank lane, which the batch tile would scale by
// another alphabet than one sample reads), feeds the int32
// proofs a staging window other than the activation format's, or
// leaves stages out of the engine (stage counts).
TEST_F(PlanArtifactTest, HostilePlanContentsRejectedBehindValidChecksum) {
  struct Case {
    const char* label;
    const FixedNetwork* engine;
    std::function<void(ArtifactBytes&, const PlanFields&)> patch;
  };
  const FixedNetwork mlp(compile(make_mlp(8), 8, 4));
  const FixedNetwork cnn(compile(make_cnn(9), 8, 4));
  const FixedNetwork mlp_exact(compile(make_mlp(8), 8, 0));
  const FixedNetwork cnn_exact(compile(make_cnn(9), 8, 0));
  ASSERT_EQ(mlp_exact.plans().at(0).k, 8);
  ASSERT_EQ(cnn_exact.conv_plans().at(0).k, 8);
  const auto& dense = mlp.plans().at(0);
  const auto& conv = cnn.conv_plans().at(0);
  // make_mlp's three stages are counted past the config key "key", the
  // four format fields and the lanes.
  const auto set_stage_count = [](ArtifactBytes& b, std::uint64_t count) {
    const std::size_t at = b.get<std::uint64_t>(40) + 8 + 3 + 5 * 4;
    EXPECT_EQ(b.get<std::uint64_t>(at), 3u);
    b.put<std::uint64_t>(at, count);
  };
  ASSERT_GE(dense.rows, 2);
  ASSERT_GE(dense.shifts.size(), 2u);
  ASSERT_GE(conv.shifts.size(), 2u);
  const auto groups = static_cast<std::uint32_t>(dense.shifts.size());
  const auto terms = static_cast<std::uint32_t>(dense.idx.size());
  const auto elems = static_cast<std::uint32_t>(conv.input_elems());
  const auto u32_at = [](const PlanFields& f, Array a, std::size_t i) {
    return f.at[a] + 4 * i;
  };
  const auto i64_at = [](const PlanFields& f, Array a, std::size_t i) {
    return f.at[a] + 8 * i;
  };

  const Case cases[] = {
      {"dense alphabet count", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int32_t>(f.scalars + 8, dense.k + 1);
       }},
      {"dense staging window", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(f.window + 8, dense.in_max_raw + 1);
       }},
      {"dense row groups not monotone", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(u32_at(f, kRowGroups, 1),
                              dense.row_groups[2] + 1);
       }},
      {"dense row groups end short", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(u32_at(f, kRowGroups, f.count[kRowGroups] - 1),
                              groups - 1);
       }},
      {"dense group terms not monotone", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(u32_at(f, kGroupBegin, 1),
                              dense.group_begin[2] + 1);
       }},
      {"dense group terms end past the terms", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(u32_at(f, kGroupBegin, groups), terms + 1);
       }},
      {"dense term slot past cols·k", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(
             u32_at(f, kIdx, 0),
             static_cast<std::uint32_t>(dense.cols * dense.k));
       }},
      {"dense term slot off its group's lane", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         // Input c's other lane: in range, so only the lane check
         // rejects it.
         ASSERT_EQ(dense.k, 4);
         b.put<std::uint32_t>(u32_at(f, kIdx, 0), dense.idx[0] ^ 1u);
       }},
      {"dense bank lane k", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint8_t>(f.at[kLanes], static_cast<std::uint8_t>(dense.k));
       }},
      {"dense bank lanes one short", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint64_t>(f.window + 16 + 16 * kLanes + 8,
                              f.count[kLanes] - 1);
       }},
      {"dense shift of 32", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(i64_at(f, kShifts, 0), 32);
       }},
      {"dense negative shift", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(i64_at(f, kShifts, 1), -1);
       }},
      {"dense sign mask", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(i64_at(f, kSigns, 0), 1);
       }},
      {"conv staging window", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(f.window, conv.in_min_raw - 1);
       }},
      {"conv output width", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int32_t>(f.scalars + 24, conv.ow + 1);
       }},
      {"conv alphabet count", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int32_t>(f.scalars + 32, conv.k + 1);
       }},
      {"conv term leaves its lane", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         // Element + max_position_base() = ic·ih·iw: the last output
         // position would read lane 1's first slot.
         b.put<std::uint32_t>(
             u32_at(f, kIdx, 0),
             elems - static_cast<std::uint32_t>(conv.max_position_base()));
       }},
      {"conv term index k·ic·ih·iw", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(u32_at(f, kIdx, 0),
                              static_cast<std::uint32_t>(conv.k) * elems);
       }},
      {"conv row groups not monotone", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(u32_at(f, kRowGroups, 1),
                              conv.row_groups[2] + 1);
       }},
      {"conv group terms not monotone", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(u32_at(f, kGroupBegin, 1),
                              conv.group_begin[2] + 1);
       }},
      {"conv shift of 32", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(i64_at(f, kShifts, 0), 32);
       }},
      {"conv sign mask", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(i64_at(f, kSigns, 0), 2);
       }},
      // k = 9 over the full set's 8-wide bank: every term index still
      // has a lane, so only the alphabet count gives it away.
      {"conventional dense alphabet count", &mlp_exact,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int32_t>(f.scalars + 8, 9);
       }},
      {"conventional conv alphabet count", &cnn_exact,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int32_t>(f.scalars + 32, 9);
       }},
      // A count of 0 loads an engine with no input stage; one short
      // loads a truncated network and leaves the last stage unread.
      {"stage count of 0", &mlp,
       [&](ArtifactBytes& b, const PlanFields&) { set_stage_count(b, 0); }},
      {"stage count one short", &mlp,
       [&](ArtifactBytes& b, const PlanFields&) { set_stage_count(b, 2); }},
      {"pool rows past its input", &cnn,
       [&](ArtifactBytes& b, const PlanFields&) {
         // Tag, c, ih, iw, window, oh, ow of make_cnn's pool; 9 × 1
         // outputs keep the stage chain's 27 values.
         const std::int32_t pool[] = {2, 3, 6, 6, 2, 3, 3};
         const std::size_t at = b.find(pool, sizeof pool);
         b.put<std::int32_t>(at + 20, 9);
         b.put<std::int32_t>(at + 24, 1);
       }},
  };

  for (const Case& c : cases) {
    const std::string file = path("hostile.plan");
    save_engine(*c.engine, file, "key");
    ArtifactBytes bytes(file);
    const PlanFields fields =
        c.engine->conv_plans().empty()
            ? locate_dense(bytes, c.engine->plans()[0])
            : locate_conv(bytes, c.engine->conv_plans()[0]);
    c.patch(bytes, fields);
    bytes.save();
    EXPECT_THROW((void)load_engine(file, "key"), SerializationError)
        << c.label;
  }

  // The restamp itself is sound: an unpatched round trip still loads
  // and runs bit-identically.
  for (const FixedNetwork* engine : {&mlp, &cnn, &mlp_exact, &cnn_exact}) {
    const std::string file = path("restamped.plan");
    save_engine(*engine, file, "key");
    ArtifactBytes(file).save();
    const auto pixels = make_pixels(engine->input_size(), 10);
    EXPECT_EQ(infer_raw(*load_engine(file, "key"), pixels,
                        backend_for(BackendKind::kScalar)),
              infer_raw(*engine, pixels, backend_for(BackendKind::kScalar)));
  }
}

/// A byte range of an artifact.
struct Region {
  std::size_t at;
  std::size_t bytes;
};

/// The byte ranges of a plan's biases, group offsets, shifts, sign
/// masks and term indices, and of a dense plan's bank lanes.
void add_group_regions(const PlanFields& fields, std::vector<Region>& out,
                       bool dense) {
  for (const Array a :
       {kBiases, kRowGroups, kGroupBegin, kShifts, kSigns, kIdx, kLanes}) {
    if (a == kLanes && !dense) continue;
    const std::size_t width = a == kLanes ? sizeof(std::uint8_t)
                              : a == kRowGroups || a == kGroupBegin || a == kIdx
                                  ? sizeof(std::uint32_t)
                                  : sizeof(std::int64_t);
    out.push_back({fields.at[a], fields.count[a] * width});
  }
}

/// Random damage to an artifact behind a valid checksum: `mutants`
/// seeded copies of the artifact at `base` (saved under "key"), each
/// with one to four random bytes of `regions` overwritten and
/// restamped, written to `file`. Every mutant must either be rejected
/// with SerializationError or load and serve `samples` samples on every
/// backend through a one-worker BatchRunner bit-identically to its own
/// per-sample scalar reference. Run under ASan/UBSan, a mutant that
/// slips past the loader and reads out of bounds, shifts out of range
/// or overflows an int32 lane fails loudly. Returns how many were
/// rejected and how many served.
std::pair<int, int> run_mutants(const std::string& base,
                                const std::string& file,
                                const std::vector<Region>& regions,
                                std::size_t input_size, std::size_t samples,
                                int mutants, std::uint64_t seed) {
  const auto pixels = make_pixels(samples * input_size, 13);
  man::util::Rng rng(seed);
  int rejected = 0;
  int served = 0;
  for (int mutant = 0; mutant < mutants; ++mutant) {
    std::filesystem::copy_file(
        base, file, std::filesystem::copy_options::overwrite_existing);
    ArtifactBytes bytes(file);
    const auto edits = 1 + rng.next_below(4);
    for (std::uint64_t e = 0; e < edits; ++e) {
      const Region& region = regions[rng.next_below(regions.size())];
      const std::size_t at = region.at + rng.next_below(region.bytes);
      // Mostly small values, the kind that can still pass the checks.
      const auto value = static_cast<std::uint8_t>(
          rng.next_below(2) == 0 ? rng.next_below(4) : rng.next_below(256));
      bytes.put<std::uint8_t>(at, value);
    }
    bytes.save();
    std::shared_ptr<const FixedNetwork> loaded;
    try {
      loaded = load_engine(file, "key");
    } catch (const SerializationError&) {
      ++rejected;
      continue;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << mutant
                    << " escaped load_engine with: " << e.what();
      continue;
    }
    ++served;
    std::vector<std::int64_t> reference;
    for (std::size_t s = 0; s < samples; ++s) {
      const auto first =
          pixels.begin() + static_cast<std::ptrdiff_t>(s * input_size);
      const std::vector<float> sample(
          first, first + static_cast<std::ptrdiff_t>(input_size));
      const auto raw =
          infer_raw(*loaded, sample, backend_for(BackendKind::kScalar));
      reference.insert(reference.end(), raw.begin(), raw.end());
    }
    for (const auto* backend : all_backends()) {
      std::vector<std::int64_t> raw(reference.size());
      man::engine::BatchRunner runner(
          *loaded, man::engine::BatchOptions{.workers = 1,
                                             .backend = backend->kind()});
      runner.run(pixels, raw);
      EXPECT_EQ(raw, reference)
          << "mutant " << mutant << " backend=" << backend->name();
    }
  }
  return {rejected, served};
}

// The first dense plan's arrays, its bank lanes and its k-strided term
// slots included, over 2·kDenseTile + 3 samples so served
// mutants run full batch tiles too.
TEST_F(PlanArtifactTest, MutatedDensePlansRejectedOrServedBitIdentically) {
  const FixedNetwork engine(compile(make_mlp(12), 8, 4));
  ASSERT_EQ(engine.tile_begin(), 0u);
  const std::string base = path("base.plan");
  save_engine(engine, base, "key");
  std::vector<Region> regions;
  add_group_regions(locate_dense(ArtifactBytes(base), engine.plans()[0]),
                    regions, /*dense=*/true);
  const auto [rejected, served] =
      run_mutants(base, path("mutant.plan"), regions, engine.input_size(),
                  2 * man::backend::kDenseTile + 3, 300, 2024);
  // Both outcomes occur, so the budget exercises the checks and the
  // kernels alike.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(served, 0);
}

/// The LeNet CNN under ASM-4 with seed-21 weights.
FixedNetwork lenet() {
  const auto& app = man::apps::get_app(man::apps::AppId::kDigitCnn12);
  Network net = app.build_network(/*seed=*/21);
  const AlphabetSet set = AlphabetSet::four();
  ProjectionPlan(app.quant(), set, net.num_weight_layers())
      .project_network(net);
  return FixedNetwork(
      net, app.quant(),
      LayerAlphabetPlan::uniform_asm(net.num_weight_layers(), set));
}

// Both conv plans of the LeNet CNN, whose stages run int32 lanes
// unless a mutant breaks their proof.
TEST_F(PlanArtifactTest, MutatedConvPlansRejectedOrServedBitIdentically) {
  const FixedNetwork engine = lenet();
  ASSERT_EQ(engine.conv_plans().size(), 2u);
  ASSERT_TRUE(engine.conv_int32_lanes(0));
  ASSERT_TRUE(engine.conv_int32_lanes(1));
  const std::string base = path("base.plan");
  save_engine(engine, base, "key");
  const ArtifactBytes bytes(base);
  std::vector<Region> regions;
  for (const ConvLayerPlan& plan : engine.conv_plans()) {
    add_group_regions(locate_conv(bytes, plan), regions, /*dense=*/false);
  }
  const auto [rejected, served] = run_mutants(
      base, path("mutant.plan"), regions, engine.input_size(), 3, 300, 2025);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(served, 0);
}

/// The byte ranges of an artifact's header fields (all but the
/// checksum, which ArtifactBytes::save() restamps) and of every scalar
/// in its directory: the formats, lanes and stage count, then per
/// stage its tag and geometry, its synapse fields (the name aside) and
/// its plan's geometry, alphabet count, staging window and array
/// references. The config key is left alone: any change to it is a
/// mismatch.
std::vector<Region> header_and_directory_regions(const ArtifactBytes& bytes) {
  std::vector<Region> out = {{0, 32}, {40, 8}};
  std::size_t at = bytes.get<std::uint64_t>(40);
  const auto skip_string = [&] { at += 8 + bytes.get<std::uint64_t>(at); };
  const auto field = [&](std::size_t size) {
    out.push_back({at, size});
    at += size;
  };
  const auto synapse_and_plan = [&](std::size_t plan_geometry,
                                    std::size_t arrays) {
    field(4);                                     // multiplier
    field(8 + 4 * bytes.get<std::uint64_t>(at));  // alphabets
    skip_string();                                // name
    field(7 * 8);                                 // macs and op counts
    field(4 * plan_geometry + 4 + 2 * 8 + arrays * 16);  // scalars, refs
  };
  skip_string();
  field(5 * 4 + 8);
  const auto stages = bytes.get<std::uint64_t>(at - 8);
  for (std::uint64_t s = 0; s < stages; ++s) {
    const auto tag = bytes.get<std::uint32_t>(at);
    field(4);
    if (tag == 0) {  // dense: in, out; plan rows, cols; seven arrays
      field(2 * 4);
      synapse_and_plan(2, 7);
    } else if (tag == 1) {  // conv: ic .. ow; plan oc .. cols; six arrays
      field(7 * 4);
      synapse_and_plan(8, 6);
    } else {  // pool geometry, or a LUT's activation kind
      field(tag == 2 ? 6 * 4 : 4);
    }
  }
  EXPECT_EQ(at, bytes.bytes().size());
  return out;
}

// The header and the directory's scalars of an MLP and of the LeNet
// CNN: a mutant either throws SerializationError or serves
// bit-identically, and no other exception leaves load_engine.
TEST_F(PlanArtifactTest,
       MutatedHeaderAndDirectoryRejectedOrServedBitIdentically) {
  const FixedNetwork mlp(compile(make_mlp(14), 8, 4));
  const FixedNetwork cnn = lenet();
  std::uint64_t seed = 2026;
  for (const FixedNetwork* engine : {&mlp, &cnn}) {
    const std::string base = path("base.plan");
    save_engine(*engine, base, "key");
    const auto regions = header_and_directory_regions(ArtifactBytes(base));
    const std::size_t samples =
        engine == &mlp ? 2 * man::backend::kDenseTile + 3 : 3;
    const auto [rejected, served] =
        run_mutants(base, path("mutant.plan"), regions, engine->input_size(),
                    samples, 300, seed++);
    EXPECT_GT(rejected, 0);
    EXPECT_GT(served, 0);
  }
}

// An artifact declaring a 24-bit activation format (2^24 - 1 raw
// values, past the engine's cap of 2^20) is rejected with
// SerializationError, whether its plans carry the matching 24-bit
// window or the unknown window {0, -1} older engines saved for formats
// the staging table could not cover.
TEST_F(PlanArtifactTest, ActivationFormatWiderThanTheStagingTableRejected) {
  man::util::Rng rng(7);
  Network net;
  net.add<Dense>(16, 4).init_xavier(rng);
  const FixedNetwork engine(compile(std::move(net), 8, 4));
  const auto& spec = engine.quant_spec();
  const man::fixed::QFormat wide(24, spec.activation_format.frac_bits());
  const auto& plan = engine.plans()[0];
  const std::pair<std::int64_t, std::int64_t> windows[] = {
      {wide.min_raw(), wide.max_raw()}, {0, -1}};
  for (const auto& [in_min, in_max] : windows) {
    const std::string file = path("wide.plan");
    save_engine(engine, file, "key");
    ArtifactBytes bytes(file);
    // weight bits, weight frac, act bits, act frac, lanes.
    const std::int32_t formats[] = {spec.weight_format.total_bits(),
                                    spec.weight_format.frac_bits(),
                                    spec.activation_format.total_bits(),
                                    spec.activation_format.frac_bits(),
                                    engine.lanes()};
    bytes.put<std::int32_t>(bytes.find(formats, sizeof formats) + 8, 24);
    const PlanFields f = locate_dense(bytes, plan);
    bytes.put<std::int64_t>(f.window, in_min);
    bytes.put<std::int64_t>(f.window + 8, in_max);
    bytes.save();
    EXPECT_THROW((void)load_engine(file, "key"), SerializationError)
        << "window [" << in_min << ", " << in_max << "]";
  }
}

// Atomic publish: a reader looping over load_engine while a writer
// republishes the same artifact must only ever observe complete,
// valid files — every load either succeeds bit-identically or (never,
// with rename() publishing) fails.
TEST_F(PlanArtifactTest, InterleavedReaderNeverSeesTornArtifact) {
  const FixedNetwork engine(compile(make_mlp(5), 8, 4));
  const std::string file = path("engine.plan");
  save_engine(engine, file, "key");
  const auto pixels = make_pixels(16, 6);
  const auto reference =
      infer_raw(engine, pixels, backend_for(BackendKind::kScalar));

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    while (!stop.load()) {
      try {
        const auto loaded = load_engine(file, "key");
        if (infer_raw(*loaded, pixels, backend_for(BackendKind::kScalar)) !=
            reference) {
          failures.fetch_add(1);
        }
      } catch (const SerializationError&) {
        failures.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < 50; ++i) save_engine(engine, file, "key");
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
}

// EngineCache disk tier: a second cache (a "cold process") must serve
// bit-identically from the published artifact, and a corrupt artifact
// must fall back to compiling and republish a good one.
TEST_F(PlanArtifactTest, EngineCacheDiskTierRoundTripsAndSelfHeals) {
  man::serve::EngineSpec spec;
  spec.app = man::apps::AppId::kDigitMlp8;
  spec.alphabets = 4;
  spec.trained = false;  // deterministic init: identical across caches

  const std::string plan_dir = path("plans");
  const std::string model_dir = path("models");
  man::serve::EngineCache warm(model_dir, plan_dir);
  const auto built = warm.get(spec);
  const std::string file = artifact_path(plan_dir, spec.key());
  ASSERT_TRUE(std::filesystem::exists(file));

  const auto pixels = make_pixels(built->input_size(), 7);
  const auto reference =
      infer_raw(*built, pixels, backend_for(BackendKind::kScalar));

  man::serve::EngineCache cold(model_dir, plan_dir);
  const auto loaded = cold.get(spec);
  EXPECT_EQ(infer_raw(*loaded, pixels, backend_for(BackendKind::kScalar)),
            reference);

  // Corrupt the artifact: the tier must fall back to a fresh compile
  // (still bit-identical) and republish a loadable artifact.
  std::filesystem::resize_file(file, std::filesystem::file_size(file) / 2);
  man::serve::EngineCache healed(model_dir, plan_dir);
  const auto rebuilt = healed.get(spec);
  EXPECT_EQ(infer_raw(*rebuilt, pixels, backend_for(BackendKind::kScalar)),
            reference);
  EXPECT_NO_THROW((void)load_engine(file, spec.key()));
}

}  // namespace
}  // namespace man::artifact
