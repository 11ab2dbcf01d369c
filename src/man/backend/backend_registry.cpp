#include <array>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "man/backend/backend_impls.h"
#include "man/backend/kernel_backend.h"

namespace man::backend {

void StagingWindow::throw_outside(std::int64_t x) const {
  throw std::out_of_range("staging: input " + std::to_string(x) +
                          " outside the window [" + std::to_string(min_raw) +
                          ", " + std::to_string(max_raw) + "]");
}

const KernelBackend& backend_for(BackendKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  const auto backends = all_backends();
  if (index >= backends.size()) {
    throw std::invalid_argument("backend_for: unknown BackendKind");
  }
  return *backends[index];
}

std::span<const KernelBackend* const> all_backends() {
  // In BackendKind order; the vector caps check CPUID here, once.
  static const std::array<KernelBackend, 4> backends = {
      detail::scalar_backend(),
      detail::vector_backend(BackendKind::kBlocked),
      detail::vector_backend(BackendKind::kSimd),
      detail::vector_backend(BackendKind::kAvx512)};
  static const std::array<const KernelBackend*, 4> pointers = {
      &backends[0], &backends[1], &backends[2], &backends[3]};
  return pointers;
}

BackendKind detect_best_backend() {
  switch (detail::cpu_bytes()) {
    case 64:
      return BackendKind::kAvx512;
    case 32:
      return BackendKind::kSimd;
    default:
      return BackendKind::kBlocked;
  }
}

BackendKind parse_backend(std::string_view name) {
  if (name == "scalar") return BackendKind::kScalar;
  if (name == "blocked") return BackendKind::kBlocked;
  if (name == "simd") return BackendKind::kSimd;
  if (name == "avx512") return BackendKind::kAvx512;
  throw std::invalid_argument(
      "MAN_BACKEND: unknown backend \"" + std::string(name) +
      "\" (expected scalar, blocked, simd, avx512, or auto)");
}

std::optional<BackendKind> env_backend_override() {
  const char* env = std::getenv("MAN_BACKEND");
  if (env == nullptr) return std::nullopt;
  const std::string_view value(env);
  if (value.empty() || value == "auto") return std::nullopt;
  return parse_backend(value);
}

BackendKind resolve_backend(std::optional<BackendKind> programmatic) {
  if (programmatic.has_value()) return *programmatic;
  if (const auto env = env_backend_override()) return *env;
  return detect_best_backend();
}

const KernelBackend& resolve(std::optional<BackendKind> programmatic) {
  return backend_for(resolve_backend(programmatic));
}

std::string_view to_string(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kScalar:
      return "scalar";
    case BackendKind::kBlocked:
      return "blocked";
    case BackendKind::kSimd:
      return "simd";
    case BackendKind::kAvx512:
      return "avx512";
  }
  return "unknown";
}

}  // namespace man::backend
