#include "common/fields.h"

#include "common/config.h"

namespace crayfish {
namespace {

Status WrongType(const char* want, const JsonValue& got) {
  // Indexed by JsonValue::Type.
  constexpr const char* kTypeNames[] = {"null",     "a bool",  "a number",
                                        "a string", "an array", "an object"};
  return Status::InvalidArgument(std::string("expected ") + want + ", got " +
                                 kTypeNames[static_cast<size_t>(got.type())]);
}

}  // namespace

template <typename Num>
Status FieldValue::To(Num* out) const {
  if (text_ != nullptr) return ParseNumber(*text_, out);
  if (!json_->is_number()) return WrongType("a number", *json_);
  return ConvertNumber(json_->as_number(), out);
}

template Status FieldValue::To(double*) const;
template Status FieldValue::To(int*) const;
template Status FieldValue::To(int64_t*) const;
template Status FieldValue::To(uint64_t*) const;

Status FieldValue::To(bool* out) const {
  if (text_ != nullptr) return ParseBool(*text_, out);
  if (!json_->is_bool()) return WrongType("a bool", *json_);
  *out = json_->as_bool();
  return Status::Ok();
}

Status FieldValue::To(std::string* out) const {
  if (text_ != nullptr) {
    *out = *text_;
  } else if (json_->is_string()) {
    *out = json_->as_string();
  } else {
    return WrongType("a string", *json_);
  }
  return Status::Ok();
}

StatusOr<JsonValue> FieldValue::AsJson() const {
  if (text_ != nullptr) return JsonValue::Parse(*text_);
  return *json_;
}

StatusOr<JsonValue> LoadJsonFile(const std::string& path,
                                 std::string_view what) {
  CRAYFISH_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path, what));
  return JsonValue::Parse(text);
}

}  // namespace crayfish
