#include "man/serve/http/wire.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace man::serve::http {

namespace {

/// Ceiling applied to request deadlines (~31.7 years). Clamping here
/// keeps the double→int64 cast defined for attacker-controlled values
/// like 1e300 and leaves later now()+deadline arithmetic (nanosecond
/// rep) far from overflow.
constexpr std::int64_t kMaxDeadlineMs = 1'000'000'000'000;

/// Minimal JSON cursor over a NUL-terminated buffer (std::string
/// guarantees one), sufficient for the flat request schema: objects,
/// arrays of numbers, strings, numbers, true/false/null. No unicode
/// unescaping — the schema carries none.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text)
      : cur_(text.c_str()), end_(text.c_str() + text.size()) {}

  void skip_ws() {
    while (cur_ < end_ && std::isspace(static_cast<unsigned char>(*cur_))) {
      ++cur_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (cur_ < end_ && *cur_ == c) {
      ++cur_;
      return true;
    }
    return false;
  }

  bool peek(char c) {
    skip_ws();
    return cur_ < end_ && *cur_ == c;
  }

  bool at_end() {
    skip_ws();
    return cur_ >= end_;
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (cur_ >= end_ || *cur_ != '"') return false;
    ++cur_;
    out.clear();
    while (cur_ < end_ && *cur_ != '"') {
      if (*cur_ == '\\') {
        ++cur_;
        if (cur_ >= end_) return false;
        switch (*cur_) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default: return false;  // \uXXXX etc: not in the schema
        }
        ++cur_;
      } else {
        out.push_back(*cur_++);
      }
    }
    if (cur_ >= end_) return false;
    ++cur_;  // closing quote
    return true;
  }

  bool parse_number(double& out) {
    skip_ws();
    // std::from_chars, unlike strtod, is locale-independent: a
    // comma-decimal LC_NUMERIC must not change how "1.5" parses.
    // (It still accepts "inf"/"nan" spellings, hence the isfinite.)
    const auto result = std::from_chars(cur_, end_, out);
    if (result.ec != std::errc{} || !std::isfinite(out)) return false;
    cur_ = result.ptr;
    return true;
  }

  /// Skips any well-formed value (for unknown keys).
  bool skip_value() {
    skip_ws();
    if (cur_ >= end_) return false;
    switch (*cur_) {
      case '"': {
        std::string ignored;
        return parse_string(ignored);
      }
      case '{':
      case '[': {
        const char open = *cur_;
        const char close = open == '{' ? '}' : ']';
        ++cur_;
        skip_ws();
        if (eat(close)) return true;
        for (;;) {
          if (open == '{') {
            std::string key;
            if (!parse_string(key) || !eat(':')) return false;
          }
          if (!skip_value()) return false;
          if (eat(close)) return true;
          if (!eat(',')) return false;
        }
      }
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default: {
        double ignored;
        return parse_number(ignored);
      }
    }
  }

 private:
  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (static_cast<std::size_t>(end_ - cur_) < len ||
        std::strncmp(cur_, word, len) != 0) {
      return false;
    }
    cur_ += len;
    return true;
  }

  const char* cur_;
  const char* end_;
};

DecodedInfer decode_json(const ParsedRequest& request, DecodedInfer out) {
  JsonCursor cursor(request.body);
  if (!cursor.eat('{')) {
    out.error = "body is not a JSON object";
    return out;
  }
  bool saw_pixels = false;
  if (!cursor.eat('}')) {
    for (;;) {
      std::string key;
      if (!cursor.parse_string(key) || !cursor.eat(':')) {
        out.error = "malformed JSON object";
        return out;
      }
      if (key == "pixels") {
        if (!cursor.eat('[')) {
          out.error = "\"pixels\" must be an array of numbers";
          return out;
        }
        saw_pixels = true;
        if (!cursor.eat(']')) {
          for (;;) {
            double value;
            if (!cursor.parse_number(value)) {
              out.error = "\"pixels\" must contain only finite numbers";
              return out;
            }
            out.pixels.push_back(static_cast<float>(value));
            if (cursor.eat(']')) break;
            if (!cursor.eat(',')) {
              out.error = "malformed \"pixels\" array";
              return out;
            }
          }
        }
      } else if (key == "deadline_ms") {
        double value;
        if (!cursor.parse_number(value) || value < 0) {
          out.error = "\"deadline_ms\" must be a non-negative number";
          return out;
        }
        // Clamp before the cast: a finite double like 1e300 exceeds
        // int64's range, and that conversion is UB [conv.fpint].
        out.deadline = std::chrono::milliseconds(static_cast<std::int64_t>(
            std::min(value, static_cast<double>(kMaxDeadlineMs))));
      } else if (key == "priority") {
        double value;
        if (!cursor.parse_number(value)) {
          out.error = "\"priority\" must be a number";
          return out;
        }
        // Same clamp-before-cast, to int's range.
        out.priority = static_cast<int>(std::clamp(
            value, static_cast<double>(std::numeric_limits<int>::min()),
            static_cast<double>(std::numeric_limits<int>::max())));
      } else if (!cursor.skip_value()) {
        out.error = "malformed value for key \"" + key + "\"";
        return out;
      }
      if (cursor.eat('}')) break;
      if (!cursor.eat(',')) {
        out.error = "malformed JSON object";
        return out;
      }
    }
  }
  if (!cursor.at_end()) {
    out.error = "trailing bytes after the JSON object";
    return out;
  }
  if (!saw_pixels) {
    out.error = "missing \"pixels\" array";
    return out;
  }
  out.ok = true;
  return out;
}

DecodedInfer decode_binary(const ParsedRequest& request, DecodedInfer out) {
  if (request.body.empty() || request.body.size() % sizeof(float) != 0) {
    out.error = "binary body of " + std::to_string(request.body.size()) +
                " bytes is not a non-empty multiple of 4 (packed "
                "little-endian float32)";
    return out;
  }
  out.pixels.resize(request.body.size() / sizeof(float));
  std::memcpy(out.pixels.data(), request.body.data(), request.body.size());
  for (const float value : out.pixels) {
    if (!std::isfinite(value)) {
      out.error = "binary payload contains a non-finite float";
      out.pixels.clear();
      return out;
    }
  }
  out.ok = true;
  return out;
}

}  // namespace

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

DecodedInfer decode_infer_body(const ParsedRequest& request) {
  DecodedInfer out;
  // Header metadata applies to both encodings; JSON fields override.
  if (const std::string* header = request.find_header("X-Man-Deadline-Ms")) {
    char* end = nullptr;
    const long value = std::strtol(header->c_str(), &end, 10);
    if (end == header->c_str() || *end != '\0' || value < 0) {
      out.error = "malformed X-Man-Deadline-Ms header";
      return out;
    }
    out.deadline =
        std::chrono::milliseconds(std::min<long>(value, kMaxDeadlineMs));
  }
  if (const std::string* header = request.find_header("X-Man-Priority")) {
    char* end = nullptr;
    const long value = std::strtol(header->c_str(), &end, 10);
    if (end == header->c_str() || *end != '\0') {
      out.error = "malformed X-Man-Priority header";
      return out;
    }
    // long→int narrowing of an out-of-range value is not UB but is
    // implementation-defined garbage; clamp like the JSON path.
    out.priority = static_cast<int>(
        std::clamp<long>(value, std::numeric_limits<int>::min(),
                         std::numeric_limits<int>::max()));
  }

  const std::string* content_type = request.find_header("Content-Type");
  if (content_type != nullptr &&
      content_type->find("application/octet-stream") != std::string::npos) {
    return decode_binary(request, std::move(out));
  }
  return decode_json(request, std::move(out));
}

std::string encode_pixels_json(std::span<const float> pixels) {
  std::string body = "{\"pixels\":[";
  char number[32];
  for (std::size_t i = 0; i < pixels.size(); ++i) {
    if (i > 0) body.push_back(',');
    // std::to_chars: locale-independent (snprintf "%g" would emit
    // "1,5" under a comma-decimal LC_NUMERIC — invalid JSON) and
    // shortest-round-trip, so decode recovers the float bit-exactly.
    const auto result =
        std::to_chars(number, number + sizeof number, pixels[i]);
    body.append(number, result.ptr);
  }
  body += "]}";
  return body;
}

std::string encode_result_json(std::string_view model_key,
                               const InferenceResult& result) {
  std::string out;
  out.reserve(128 + result.raw.size() * 8);
  out += "{\"status\":\"";
  out += status_name(result.status);
  out += "\",\"model\":\"";
  append_escaped(out, model_key);
  out += "\",\"samples\":";
  out += std::to_string(result.samples);
  out += ",\"output_size\":";
  out += std::to_string(result.output_size);
  out += ",\"predictions\":[";
  for (std::size_t i = 0; i < result.predictions.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(result.predictions[i]);
  }
  out += "],\"raw\":[";
  for (std::size_t i = 0; i < result.raw.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(result.raw[i]);
  }
  out += "],\"queue_ns\":";
  out += std::to_string(result.queue_ns);
  out += ",\"compute_ns\":";
  out += std::to_string(result.compute_ns);
  out += ",\"backend\":\"";
  append_escaped(out, result.backend);
  out += "\",\"tier\":";
  out += std::to_string(result.tier);
  out += ",\"tier_name\":\"";
  append_escaped(out, result.tier_name.empty() ? "full" : result.tier_name);
  out += "\"}";
  return out;
}

std::string encode_error_json(Status status, std::string_view message) {
  std::string out = "{\"status\":\"";
  out += status_name(status);
  out += "\",\"error\":\"";
  append_escaped(out, message);
  out += "\"}";
  return out;
}

const char* reason_phrase(int status_code) noexcept {
  switch (status_code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string encode_http_response(int status_code,
                                 std::string_view content_type,
                                 std::string_view body, bool keep_alive,
                                 const std::vector<ExtraHeader>& extra) {
  std::string out;
  out.reserve(128 + body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(status_code);
  out.push_back(' ');
  out += reason_phrase(status_code);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  for (const ExtraHeader& header : extra) {
    out += "\r\n";
    out += header.name;
    out += ": ";
    out += header.value;
  }
  out += "\r\n\r\n";
  out += body;
  return out;
}

}  // namespace man::serve::http
