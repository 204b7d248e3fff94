#ifndef CRAYFISH_COMMON_FIELDS_H_
#define CRAYFISH_COMMON_FIELDS_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/json.h"
#include "common/status.h"

namespace crayfish {

/// One value on its way into a config field: a member of a JSON spec file,
/// or the text of a `key = value` line (properties files and overrides).
/// `To` converts either source through one function per type, so both
/// accept and reject the same values:
///   - numbers: a JSON number, or text through ParseNumber; both then pass
///     ConvertNumber (finite; integers integral and in range);
///   - bool: JSON true/false, or text through ParseBool;
///   - string: a JSON string, or the text as it stands.
/// A JSON value of any other type is InvalidArgument, never a default.
class FieldValue {
 public:
  explicit FieldValue(const JsonValue& json) : json_(&json) {}
  explicit FieldValue(const std::string& text) : text_(&text) {}

  /// Defined for double, int, int64_t and uint64_t.
  template <typename Num>
  Status To(Num* out) const;
  Status To(bool* out) const;
  Status To(std::string* out) const;

  /// The JSON value, or nullptr for text: fields holding a nested object
  /// or array of specs load from JSON only.
  const JsonValue* json() const { return json_; }
  /// The value as a JSON document: the JSON value, or the text parsed as
  /// JSON (`workload.points = [[0, 100], [60, 400]]`).
  StatusOr<JsonValue> AsJson() const;

 private:
  const JsonValue* json_ = nullptr;
  const std::string* text_ = nullptr;
};

/// One named field of config struct T: a data member set by FieldValue::To,
/// or a setter for a field that needs more (an enum parsed from its name, a
/// nested object, a spec file to load). Each config struct has one table of
/// these, serving its JSON loader and its `key = value` overrides alike.
template <typename T>
struct Field {
  using Setter = Status (*)(T* obj, const FieldValue& value);
  std::string_view name;
  std::variant<double T::*, int T::*, int64_t T::*, uint64_t T::*,
               bool T::*, std::string T::*, Setter>
      target;
};

template <typename T>
bool HasField(std::span<const Field<T>> table, std::string_view key) {
  for (const Field<T>& f : table) {
    if (f.name == key) return true;
  }
  return false;
}

/// Sets field `key` of `*obj` from `value`. An unknown key is
/// InvalidArgument "unknown <what> field: <key>"; a value the field rejects
/// is InvalidArgument "<what> field <key>: <reason>". Other codes (a spec
/// file's IoError) pass through unchanged.
template <typename T>
Status SetField(std::type_identity_t<std::span<const Field<T>>> table,
                std::string_view what, std::string_view key,
                const FieldValue& value, T* obj) {
  for (const Field<T>& f : table) {
    if (f.name != key) continue;
    const Status st = std::visit(
        [&](auto target) -> Status {
          if constexpr (std::is_same_v<decltype(target),
                                       typename Field<T>::Setter>) {
            return target(obj, value);
          } else {
            return value.To(&(obj->*target));
          }
        },
        f.target);
    if (!st.IsInvalidArgument()) return st;
    return Status::InvalidArgument(std::string(what) + " field " +
                                   std::string(key) + ": " + st.message());
  }
  return Status::InvalidArgument("unknown " + std::string(what) +
                                 " field: " + std::string(key));
}

/// Sets one field of `*obj` per member of the JSON object `json`, so a
/// misspelled or misplaced member is an error rather than a silent default.
template <typename T>
Status SetFields(std::type_identity_t<std::span<const Field<T>>> table,
                 std::string_view what, const JsonValue& json, T* obj) {
  if (!json.is_object()) {
    return Status::InvalidArgument(std::string(what) +
                                   " must be a JSON object");
  }
  for (const auto& [key, member] : json.as_object()) {
    CRAYFISH_RETURN_IF_ERROR(
        SetField<T>(table, what, key, FieldValue(member), obj));
  }
  return Status::Ok();
}

/// Reads and parses the JSON spec file at `path`. An unreadable file is
/// IoError "cannot read <what>: <path>".
StatusOr<JsonValue> LoadJsonFile(const std::string& path,
                                 std::string_view what);

}  // namespace crayfish

#endif  // CRAYFISH_COMMON_FIELDS_H_
