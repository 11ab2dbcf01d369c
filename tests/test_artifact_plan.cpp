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

#include "man/backend/kernel_backend.h"
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
// per-plan conv tile shapes) and newer formats alike.
TEST_F(PlanArtifactTest, VersionBumpRejected) {
  static_assert(kArtifactVersion == 3);
  const FixedNetwork engine(compile(make_mlp(3), 8, 4));
  const std::string file = path("engine.plan");
  for (const std::uint32_t version : {1u, 2u, kArtifactVersion + 1}) {
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
// only: two compiles of the same conv network in one process save
// byte-identical files (nothing timed at build time, such as a
// measured conv tile, may reach the file).
TEST_F(PlanArtifactTest, SameNetworkSavesByteIdenticalArtifacts) {
  const FixedNetwork first(compile(make_cnn(8), 8, 4));
  const FixedNetwork second(compile(make_cnn(8), 8, 4));
  ASSERT_EQ(first.conv_plans().size(), 1u);
  ASSERT_TRUE(first.conv_int32_lanes(0));
  save_engine(first, path("first.plan"), "key");
  save_engine(second, path("second.plan"), "key");
  const ArtifactBytes a(path("first.plan"));
  const ArtifactBytes b(path("second.plan"));
  ASSERT_FALSE(a.bytes().empty());
  EXPECT_TRUE(a.bytes() == b.bytes());
}

template <typename T>
std::vector<T> copy_of(const man::backend::PlanArray<T>& array) {
  return std::vector<T>(array.begin(), array.end());
}

/// Where the first plan's fields sit in its artifact: the directory's
/// scalar block (the plan's leading i32/u32 fields, in format order)
/// and (ASM plans) the plane arrays.
struct PlanFields {
  std::size_t scalars = 0;  ///< first geometry field
  std::size_t planes = 0;   ///< the `planes` field
  std::size_t zero = 0;     ///< zero_slot / zero_base
  std::size_t idx = 0;
  std::size_t shifts = 0;
  std::size_t signs = 0;
  std::size_t patch_elems = 0;  ///< conv only
};

template <typename Plan>
PlanFields locate(const ArtifactBytes& bytes, const Plan& plan,
                  std::vector<std::int32_t> geometry) {
  const std::size_t ints = geometry.size();
  geometry.push_back(plan.k);
  geometry.push_back(plan.planes);
  geometry.push_back(plan.exact ? 1 : 0);
  PlanFields fields;
  fields.scalars = bytes.find(geometry);
  fields.planes = fields.scalars + (ints + 1) * 4;
  fields.zero = fields.scalars + (ints + 3) * 4;
  if (!plan.exact) {
    fields.idx = bytes.find(copy_of(plan.idx));
    fields.shifts = bytes.find(copy_of(plan.shifts));
    fields.signs = bytes.find(copy_of(plan.sign_masks));
  }
  return fields;
}

// Loader content checks: each field a kernel or the staging indexes
// with is patched to a value no compiler emits, the checksum is
// recomputed, and the load must throw SerializationError. Without the
// checks, inference on such a plan writes past the multiples buffer
// (zero slot), reads past a buffer (plane indices, exact patch
// offsets, pool windows, a conv plan without planes, an alphabet count
// beyond the bank's), shifts by 64 or by a negative amount (UB), lets
// the backends disagree (unpacked steps, sign masks), or feeds the
// int32 tile proof a staging window other than the activation
// format's.
TEST_F(PlanArtifactTest, HostilePlanContentsRejectedBehindValidChecksum) {
  using Patch = std::function<void(ArtifactBytes&, const PlanFields&)>;
  struct Case {
    const char* label;
    const FixedNetwork* engine;
    Patch patch;
  };
  const FixedNetwork mlp(compile(make_mlp(8), 8, 4));
  const FixedNetwork cnn(compile(make_cnn(9), 8, 4));
  const FixedNetwork cnn_exact(compile(make_cnn(9), 8, 0));
  const auto& dense = mlp.plans().at(0);
  const auto& conv = cnn.conv_plans().at(0);
  const auto k_dense = static_cast<std::uint32_t>(dense.k);
  const auto k_conv = static_cast<std::uint32_t>(conv.k);
  // A cell whose weight has a second step: blanking its first makes
  // the steps unpacked.
  std::size_t two_step = 0;
  while (dense.idx[dense.plane_stride() + two_step] == dense.zero_slot) {
    ++two_step;
  }
  ASSERT_LT(two_step, dense.plane_stride());
  const std::uint64_t elems = conv.input_elems();
  // A new zero slot (or base) value, moved onto every absent entry too,
  // so only the alphabet count disagrees with the synapse.
  const auto rezero = [](ArtifactBytes& b, const PlanFields& f,
                         std::size_t entries, std::uint32_t old_zero,
                         std::uint32_t new_zero) {
    b.put<std::uint32_t>(f.zero, new_zero);
    for (std::size_t i = 0; i < entries; ++i) {
      if (b.get<std::uint32_t>(f.idx + i * 4) == old_zero) {
        b.put<std::uint32_t>(f.idx + i * 4, new_zero);
      }
    }
  };

  const Case cases[] = {
      {"dense zero slot", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(f.zero, dense.zero_slot + 1);
       }},
      {"dense cols_padded", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int32_t>(f.scalars + 8, dense.cols_padded + 4);
       }},
      {"dense alphabet count", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int32_t>(f.planes - 4, dense.k + 1);
         rezero(b, f, dense.idx.size(), dense.zero_slot,
                static_cast<std::uint32_t>(dense.cols) * (k_dense + 1));
       }},
      {"dense idx past zero slot", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(f.idx, dense.zero_slot + 1);
       }},
      {"dense unpacked steps", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(f.idx + two_step * 4, dense.zero_slot);
       }},
      {"dense shift of 64", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(f.shifts, 64);
       }},
      {"dense negative shift", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(f.shifts, -1);
       }},
      {"dense sign mask", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(f.signs, 1);
       }},
      {"dense staging window", &mlp,
       [&](ArtifactBytes& b, const PlanFields& f) {
         // in_min_raw, in_max_raw follow the zero slot.
         b.put<std::int64_t>(f.zero + 12, dense.in_max_raw + 1);
       }},
      {"conv staging window", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(f.zero + 4, conv.in_min_raw - 1);
       }},
      {"conv zero base", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(f.zero, conv.zero_base + 1);
       }},
      {"conv output width", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int32_t>(f.scalars + 24, conv.ow + 1);
       }},
      {"conv alphabet count", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int32_t>(f.planes - 4, conv.k + 1);
         rezero(b, f, conv.idx.size(), conv.zero_base,
                static_cast<std::uint32_t>(elems * (k_conv + 1)));
       }},
      {"conv idx past zero region", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(f.idx, conv.zero_base + 1);
       }},
      {"conv patch element", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(f.patch_elems,
                              static_cast<std::uint32_t>(elems));
       }},
      {"exact conv patch element", &cnn_exact,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::uint32_t>(f.patch_elems,
                              static_cast<std::uint32_t>(elems));
       }},
      {"conv shift of 64", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(f.shifts, 64);
       }},
      {"conv sign mask", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         b.put<std::int64_t>(f.signs, 2);
       }},
      {"pool rows past its input", &cnn,
       [&](ArtifactBytes& b, const PlanFields&) {
         // Tag, c, ih, iw, window, oh, ow of make_cnn's pool; 9 × 1
         // outputs keep the stage chain's 27 values.
         const std::int32_t pool[] = {2, 3, 6, 6, 2, 3, 3};
         const std::size_t at = b.find(pool, sizeof pool);
         b.put<std::int32_t>(at + 20, 9);
         b.put<std::int32_t>(at + 24, 1);
       }},
      {"conv without planes", &cnn,
       [&](ArtifactBytes& b, const PlanFields& f) {
         // planes = 0 and empty idx/shifts arrays: every size agrees.
         // An array's directory reference is its (offset, count).
         b.put<std::int32_t>(f.planes, 0);
         for (const std::size_t at : {f.idx, f.shifts}) {
           const std::uint64_t ref[2] = {at, conv.idx.size()};
           b.put<std::uint64_t>(b.find(ref, sizeof ref) + 8, 0);
         }
       }},
  };

  for (const Case& c : cases) {
    const std::string file = path("hostile.plan");
    save_engine(*c.engine, file, "key");
    ArtifactBytes bytes(file);
    PlanFields fields;
    if (!c.engine->conv_plans().empty()) {
      const auto& p = c.engine->conv_plans()[0];
      fields = locate(bytes, p,
                      {p.oc, p.ic, p.kernel, p.ih, p.iw, p.oh, p.ow, p.cols,
                       p.cols_padded});
      fields.patch_elems = bytes.find(copy_of(p.patch_elems));
    } else {
      const auto& p = c.engine->plans()[0];
      fields = locate(bytes, p, {p.rows, p.cols, p.cols_padded});
    }
    c.patch(bytes, fields);
    bytes.save();
    EXPECT_THROW((void)load_engine(file, "key"), SerializationError)
        << c.label;
  }

  // The restamp itself is sound: an unpatched round trip still loads
  // and runs bit-identically.
  for (const FixedNetwork* engine : {&mlp, &cnn, &cnn_exact}) {
    const std::string file = path("restamped.plan");
    save_engine(*engine, file, "key");
    ArtifactBytes(file).save();
    const auto pixels = make_pixels(engine->input_size(), 10);
    EXPECT_EQ(infer_raw(*load_engine(file, "key"), pixels,
                        backend_for(BackendKind::kScalar)),
              infer_raw(*engine, pixels, backend_for(BackendKind::kScalar)));
  }
}

// An artifact declaring a 24-bit activation format (2^24 - 1 raw
// values, past PrecomputerCache::kMaxFlatSpan) is rejected with
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
    const PlanFields f =
        locate(bytes, plan, {plan.rows, plan.cols, plan.cols_padded});
    // in_min_raw, in_max_raw follow the zero slot.
    bytes.put<std::int64_t>(f.zero + 4, in_min);
    bytes.put<std::int64_t>(f.zero + 12, in_max);
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
