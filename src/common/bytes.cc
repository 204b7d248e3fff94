#include "common/bytes.h"

namespace crayfish {

void ByteWriter::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::PutF32(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(bits);
}

void ByteWriter::PutF64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(bits);
}

void ByteWriter::PutString(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::PutBlock(const uint8_t* data, size_t len) {
  PutU64(len);
  buf_.insert(buf_.end(), data, data + len);
}

void ByteWriter::PutRaw(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void ByteWriter::PutF32Array(const float* data, size_t len) {
  PutU64(len);
  if (len == 0) return;  // `data` may be null, which memcpy forbids
  const size_t offset = buf_.size();
  buf_.resize(offset + len * sizeof(float));
  std::memcpy(buf_.data() + offset, data, len * sizeof(float));
}

Status ByteReader::Need(size_t n) const {
  if (pos_ + n > len_) {
    return Status::Corruption("byte buffer truncated");
  }
  return Status::Ok();
}

StatusOr<uint8_t> ByteReader::GetU8() {
  CRAYFISH_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

StatusOr<uint32_t> ByteReader::GetU32() {
  CRAYFISH_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

StatusOr<uint64_t> ByteReader::GetU64() {
  CRAYFISH_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

StatusOr<int64_t> ByteReader::GetI64() {
  CRAYFISH_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

StatusOr<float> ByteReader::GetF32() {
  CRAYFISH_ASSIGN_OR_RETURN(uint32_t bits, GetU32());
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

StatusOr<double> ByteReader::GetF64() {
  CRAYFISH_ASSIGN_OR_RETURN(uint64_t bits, GetU64());
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

StatusOr<std::string> ByteReader::GetString() {
  CRAYFISH_ASSIGN_OR_RETURN(uint32_t n, GetU32());
  CRAYFISH_RETURN_IF_ERROR(Need(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

StatusOr<Bytes> ByteReader::GetBlock() {
  CRAYFISH_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  CRAYFISH_RETURN_IF_ERROR(Need(n));
  Bytes b(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return b;
}

StatusOr<std::vector<float>> ByteReader::GetF32Array() {
  CRAYFISH_ASSIGN_OR_RETURN(uint64_t n, GetU64());
  CRAYFISH_RETURN_IF_ERROR(Need(n * sizeof(float)));
  std::vector<float> out(n);
  if (n == 0) return out;  // out.data() may be null, which memcpy forbids
  std::memcpy(out.data(), data_ + pos_, n * sizeof(float));
  pos_ += n * sizeof(float);
  return out;
}

}  // namespace crayfish
