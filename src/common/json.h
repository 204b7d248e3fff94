#ifndef CRAYFISH_COMMON_JSON_H_
#define CRAYFISH_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace crayfish {

/// Minimal JSON document model. Crayfish uses JSON serialization throughout
/// the data pipeline (paper §3.1) — CrayfishDataBatch payloads, configs, and
/// reports are all JSON.
///
/// JsonValue is a tagged union over null / bool / number / string / array /
/// object. Numbers are stored as double (sufficient for the payloads and
/// configs we carry; integral values round-trip exactly up to 2^53).
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  // std::map keeps key order deterministic, which keeps serialized batch
  // sizes and golden tests stable.
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}              // NOLINT
  JsonValue(double d) : type_(Type::kNumber), number_(d) {}        // NOLINT
  JsonValue(int i) : type_(Type::kNumber), number_(i) {}           // NOLINT
  JsonValue(int64_t i)                                             // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(uint64_t i)                                            // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}   // NOLINT
  JsonValue(std::string s)                                         // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}  // NOLINT
  JsonValue(Object o)                                              // NOLINT
      : type_(Type::kObject), object_(std::move(o)) {}

  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  Array& as_array() { return array_; }
  const Object& as_object() const { return object_; }
  Object& as_object() { return object_; }

  /// Object member access; inserting when absent (object type required).
  JsonValue& operator[](const std::string& key) { return object_[key]; }
  /// Returns nullptr when the key is absent or this is not an object.
  const JsonValue* Find(const std::string& key) const;

  /// The member `key` when it is a number, else `fallback` (config loaders
  /// use common/fields.h, which rejects a wrong type instead).
  double GetNumberOr(const std::string& key, double fallback) const;

  void Append(JsonValue v) { array_.push_back(std::move(v)); }
  size_t size() const;

  /// Compact single-line serialization.
  std::string Dump() const;
  /// Pretty-printed serialization with 2-space indentation.
  std::string DumpPretty() const;

  /// Parses a JSON text. Rejects trailing garbage.
  static StatusOr<JsonValue> Parse(const std::string& text);

  bool operator==(const JsonValue& other) const;

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Escapes a string for embedding in JSON (adds surrounding quotes).
std::string JsonEscape(const std::string& s);

}  // namespace crayfish

#endif  // CRAYFISH_COMMON_JSON_H_
