#ifndef ARIADNE_COMMON_SERIALIZE_H_
#define ARIADNE_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace ariadne {

/// Append-only little-endian binary encoder. Used by the provenance store
/// spill path (the stand-in for the paper's HDFS offload) and graph
/// binary I/O.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteI64(int64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    buf_.append(s);
  }
  void WriteValue(const Value& v);

  const std::string& data() const { return buf_; }
  std::string MoveData() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void WriteRaw(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked decoder over a byte buffer produced by BinaryWriter.
class BinaryReader {
 public:
  explicit BinaryReader(std::string data) : buf_(std::move(data)) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  Result<Value> ReadValue();

  bool AtEnd() const { return pos_ == buf_.size(); }
  size_t remaining() const { return buf_.size() - pos_; }
  /// Current byte offset — used by storage error messages to point at
  /// the corrupt position of a spill or store file.
  size_t pos() const { return pos_; }

 private:
  Status ReadRaw(void* p, size_t n);
  std::string buf_;
  size_t pos_ = 0;
};

/// Writes `data` to `path` atomically: write to a temp file in the same
/// directory, fsync, rename over `path`, fsync the directory. A crash at
/// any instant leaves either the old complete file or the new complete
/// file — never a torn one (crash_recovery_test proves this under
/// injected kills). Used by every durable artifact: spill files, APV3
/// store images, checkpoints. Fault points: "file-write" (before any
/// byte), "file-write-mid" (halfway through the temp file).
Status WriteFile(const std::string& path, const std::string& data);
/// Reads the whole file at `path`.
Result<std::string> ReadFile(const std::string& path);

}  // namespace ariadne

#endif  // ARIADNE_COMMON_SERIALIZE_H_
