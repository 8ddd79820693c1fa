// Minimal JSON reader/writer for the observability layer.
//
// Traces are JSONL (one JSON object per line) so they can be streamed,
// grepped and diffed; this module is the self-contained parser/printer the
// tracer, the replay verifier and the offline checker share. It supports
// the full JSON value grammar the trace schema uses (objects, arrays,
// strings, numbers, booleans, null) and nothing more exotic.
//
// Determinism contract: doubles are printed with std::to_chars (shortest
// round-trip form), so serialize -> parse -> serialize is bit-identical —
// the property the replay verifier's line-for-line comparison rests on.
// Numbers keep their raw source token so 64-bit integers (e.g. seeds)
// survive even beyond the 2^53 double-exact range.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace chc::obs {

/// One parsed JSON value (a small ordered-object DOM).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  ///< string payload, or the raw token for numbers
  std::vector<JsonValue> items;                          ///< kArray
  std::vector<std::pair<std::string, JsonValue>> fields; ///< kObject, ordered

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }

  /// Object field lookup; nullptr when absent (or not an object).
  const JsonValue* find(std::string_view key) const;
};

/// Parses one JSON document. Returns false (and sets *error when non-null)
/// on malformed input; trailing whitespace is allowed, trailing garbage is
/// an error.
bool json_parse(std::string_view text, JsonValue& out,
                std::string* error = nullptr);

/// Appends the shortest round-trip decimal form of `v` (std::to_chars).
void json_append_double(std::string& out, double v);

/// Appends `s` as a quoted, escaped JSON string.
void json_append_string(std::string& out, std::string_view s);

}  // namespace chc::obs
