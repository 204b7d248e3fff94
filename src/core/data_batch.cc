#include "core/data_batch.h"

#include <cstdio>

#include "common/fields.h"
#include "common/logging.h"

namespace crayfish::core {

int64_t CrayfishDataBatch::elements_per_sample() const {
  int64_t n = 1;
  for (int64_t d : shape) n *= d;
  return n;
}

int64_t CrayfishDataBatch::batch_size() const {
  const int64_t per_sample = elements_per_sample();
  if (per_sample == 0) return 0;
  return static_cast<int64_t>(data.size()) / per_sample;
}

std::string CrayfishDataBatch::ToJson() const {
  std::string out;
  out.reserve(data.size() * 6 + 128);
  out += "{\"id\":";
  out += std::to_string(id);
  char ts[32];
  std::snprintf(ts, sizeof(ts), "%.6f", created_at);
  out += ",\"ts\":";
  out += ts;
  out += ",\"shape\":[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(shape[i]);
  }
  out += "],\"data\":[";
  char buf[16];
  for (size_t i = 0; i < data.size(); ++i) {
    if (i > 0) out += ",";
    std::snprintf(buf, sizeof(buf), "%.3f", data[i]);
    out += buf;
  }
  out += "]}";
  return out;
}

crayfish::StatusOr<CrayfishDataBatch> CrayfishDataBatch::FromJson(
    const std::string& text) {
  CRAYFISH_ASSIGN_OR_RETURN(JsonValue v, JsonValue::Parse(text));
  if (!v.is_object()) {
    return crayfish::Status::InvalidArgument("batch JSON must be an object");
  }
  CrayfishDataBatch batch;
  if (const JsonValue* id = v.Find("id")) {
    CRAYFISH_RETURN_IF_ERROR(FieldValue(*id).To(&batch.id));
  }
  if (const JsonValue* ts = v.Find("ts")) {
    CRAYFISH_RETURN_IF_ERROR(FieldValue(*ts).To(&batch.created_at));
  }
  const JsonValue* shape = v.Find("shape");
  if (shape == nullptr || !shape->is_array()) {
    return crayfish::Status::InvalidArgument("batch JSON missing shape");
  }
  // Every dim is >= 1 and their product is at most 2^31, so
  // elements_per_sample() cannot overflow.
  int64_t per_sample = 1;
  for (const JsonValue& d : shape->as_array()) {
    int64_t dim = 0;
    CRAYFISH_RETURN_IF_ERROR(FieldValue(d).To(&dim));
    if (dim < 1 || dim > (int64_t{1} << 31) / per_sample) {
      return crayfish::Status::InvalidArgument(
          "shape entries must be >= 1, with a product of at most 2^31");
    }
    per_sample *= dim;
    batch.shape.push_back(dim);
  }
  const JsonValue* data = v.Find("data");
  if (data == nullptr || !data->is_array()) {
    return crayfish::Status::InvalidArgument("batch JSON missing data");
  }
  batch.data.reserve(data->size());
  for (const JsonValue& d : data->as_array()) {
    if (!d.is_number()) {
      return crayfish::Status::InvalidArgument("data entries must be numbers");
    }
    batch.data.push_back(static_cast<float>(d.as_number()));
  }
  if (static_cast<int64_t>(batch.data.size()) % per_sample != 0) {
    return crayfish::Status::InvalidArgument(
        "data length is not a multiple of the sample size");
  }
  return batch;
}

crayfish::StatusOr<tensor::Tensor> CrayfishDataBatch::ToTensor() const {
  std::vector<int64_t> dims;
  dims.push_back(batch_size());
  for (int64_t d : shape) dims.push_back(d);
  tensor::Shape t_shape(std::move(dims));
  if (t_shape.NumElements() != static_cast<int64_t>(data.size())) {
    return crayfish::Status::InvalidArgument("inconsistent batch data size");
  }
  return tensor::Tensor(std::move(t_shape), data);
}

CrayfishDataBatch CrayfishDataBatch::FromTensor(uint64_t id,
                                                double created_at,
                                                const tensor::Tensor& t) {
  CRAYFISH_CHECK_GE(t.shape().rank(), 1);
  CrayfishDataBatch batch;
  batch.id = id;
  batch.created_at = created_at;
  for (int64_t i = 1; i < t.shape().rank(); ++i) {
    batch.shape.push_back(t.shape()[i]);
  }
  batch.data = t.values();
  return batch;
}

}  // namespace crayfish::core
