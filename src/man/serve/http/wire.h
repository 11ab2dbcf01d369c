// Wire schema for the HTTP serving front-end: decoding of inference
// request bodies (a minimal JSON {"pixels": [...]} reader and a raw
// little-endian float32 binary form) and encoding of the JSON
// responses + full HTTP/1.1 response framing. Kept separate from the
// epoll machinery so the codec is unit-testable without sockets.
#ifndef MAN_SERVE_HTTP_WIRE_H
#define MAN_SERVE_HTTP_WIRE_H

#include <chrono>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "man/serve/http/http_parser.h"
#include "man/serve/serve_types.h"

namespace man::serve::http {

/// Decoded POST /v1/infer/<model> body.
struct DecodedInfer {
  bool ok = false;
  std::string error;  ///< when !ok: what was wrong with the body
  std::vector<float> pixels;
  /// Per-request deadline (JSON "deadline_ms" / X-Man-Deadline-Ms).
  std::optional<std::chrono::milliseconds> deadline;
  /// Scheduling priority (JSON "priority" / X-Man-Priority).
  int priority = 0;
};

/// Decodes an inference request body by Content-Type:
/// application/json (default): {"pixels":[...], "deadline_ms":N,
/// "priority":N}; application/octet-stream: the body is a packed
/// little-endian float32 array, metadata comes from the X-Man-*
/// headers. Unknown JSON keys are skipped; malformed input returns
/// ok=false with a reason (the caller answers 400).
[[nodiscard]] DecodedInfer decode_infer_body(const ParsedRequest& request);

/// The JSON request body {"pixels":[...]} (what HttpClient::infer
/// sends) — locale-independent, shortest-round-trip float formatting,
/// so decode_infer_body() recovers every float bit-exactly under any
/// LC_NUMERIC.
[[nodiscard]] std::string encode_pixels_json(std::span<const float> pixels);

/// The JSON body of a served (kOk) response:
/// {"status":"ok","model":...,"samples":N,"output_size":N,
///  "predictions":[...],"raw":[...],"queue_ns":N,"compute_ns":N,
///  "backend":"...","tier":N,"tier_name":"..."} — tier_name matches
/// the X-Man-Accuracy-Tier response header ("full" when untiered).
[[nodiscard]] std::string encode_result_json(std::string_view model_key,
                                             const InferenceResult& result);

/// `text` appended to `out` as the inside of a JSON string (quotes,
/// backslashes and control characters escaped).
void append_escaped(std::string& out, std::string_view text);

/// The JSON body of every non-kOk outcome:
/// {"status":"<status_name>","error":"<message>"}.
[[nodiscard]] std::string encode_error_json(Status status,
                                            std::string_view message);

/// One extra response header (e.g. Retry-After).
struct ExtraHeader {
  std::string_view name;
  std::string value;
};

/// Frames a complete HTTP/1.1 response: status line (with the
/// standard reason phrase), Content-Type/Content-Length/Connection
/// headers, any extras, then the body.
[[nodiscard]] std::string encode_http_response(
    int status_code, std::string_view content_type, std::string_view body,
    bool keep_alive, const std::vector<ExtraHeader>& extra = {});

/// The standard reason phrase for the status codes this server emits
/// ("Unknown" otherwise).
[[nodiscard]] const char* reason_phrase(int status_code) noexcept;

}  // namespace man::serve::http

#endif  // MAN_SERVE_HTTP_WIRE_H
