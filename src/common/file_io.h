// Shared stdio RAII + whole-buffer transfer helpers for the binary
// (de)serializers (quantizer models, code arrays, graphs, IVF indexes,
// *vecs datasets). One definition so edge-case policy — zero-byte transfers
// are legal no-ops (empty containers have null data()) — cannot diverge
// between loaders.
//
// Crash-safe persistence primitives live here too:
//  * Crc32 / CrcWriter / CrcReader — every index/model format appends a
//    CRC32 (zlib polynomial) of all preceding bytes, accumulated inline as
//    the payload streams through, and every loader checks it on every load
//    (CrcReader::VerifyTrailer), so a bit-flipped, torn or extended file
//    surfaces as a clean Status error instead of a silently wrong index.
//  * AtomicFile — write-temp-then-rename: a crash mid-save leaves the
//    previous file intact; the temp is removed on abandonment.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "common/status.h"

namespace rpq::io {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

inline bool WriteAll(std::FILE* f, const void* data, size_t bytes) {
  return bytes == 0 || std::fwrite(data, 1, bytes, f) == bytes;
}

inline bool ReadAll(std::FILE* f, void* data, size_t bytes) {
  return bytes == 0 || std::fread(data, 1, bytes, f) == bytes;
}

/// Bytes from the current position to EOF (restores the position); -1 on a
/// seek/tell failure. Loaders use this to bound header-declared allocation
/// sizes before trusting them.
inline long long BytesRemaining(std::FILE* f) {
  long cur = std::ftell(f);
  if (cur < 0 || std::fseek(f, 0, SEEK_END) != 0) return -1;
  long end = std::ftell(f);
  if (end < 0 || std::fseek(f, cur, SEEK_SET) != 0) return -1;
  return static_cast<long long>(end) - cur;
}

// ------------------------------------------------------------------ CRC32 ---

namespace detail {
inline const std::array<uint32_t, 256>& Crc32Table() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int b = 0; b < 8; ++b) {
        c = (c & 1) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}
}  // namespace detail

/// Incremental CRC32 (zlib polynomial; Crc32Update(0, data, n) matches
/// zlib's crc32() for a whole buffer).
inline uint32_t Crc32Update(uint32_t crc, const void* data, size_t bytes) {
  const auto& table = detail::Crc32Table();
  const auto* p = static_cast<const uint8_t*>(data);
  crc ^= 0xffffffffu;
  for (size_t i = 0; i < bytes; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

/// WriteAll that folds every written byte into a running CRC. Call
/// WriteTrailer() last: it appends the 4-byte little-endian CRC of
/// everything written through this wrapper.
class CrcWriter {
 public:
  explicit CrcWriter(std::FILE* f) : f_(f) {}

  bool Write(const void* data, size_t bytes) {
    if (!WriteAll(f_, data, bytes)) return false;
    crc_ = Crc32Update(crc_, data, bytes);
    return true;
  }
  bool WriteTrailer() { return WriteAll(f_, &crc_, sizeof(crc_)); }

 private:
  std::FILE* f_;
  uint32_t crc_ = 0;
};

/// ReadAll that folds every read byte into a running CRC. After the payload,
/// VerifyTrailer() reads the stored CRC and compares.
class CrcReader {
 public:
  explicit CrcReader(std::FILE* f) : f_(f) {}

  bool Read(void* data, size_t bytes) {
    if (!ReadAll(f_, data, bytes)) return false;
    crc_ = Crc32Update(crc_, data, bytes);
    return true;
  }
  /// Every loader's end-of-file rule: the 4-byte trailer matches the
  /// accumulated CRC and the file ends right after it. A flipped bit, a
  /// torn tail or a byte appended past the trailer is the same IOError.
  Status VerifyTrailer(const std::string& path) {
    uint32_t stored = 0;
    if (!ReadAll(f_, &stored, sizeof(stored)) || stored != crc_ ||
        std::fgetc(f_) != EOF) {
      return Status::IOError(path + ": checksum mismatch or data past the "
                                    "trailer (corrupt or torn file)");
    }
    return Status::OK();
  }

 private:
  std::FILE* f_;
  uint32_t crc_ = 0;
};

// ------------------------------------------------- atomic file replacement ---

/// Crash-safe file writer: all writes land in `<path>.tmp`; Commit()
/// flushes, closes, and renames over `path` in one step (POSIX rename is
/// atomic within a filesystem). Destruction without Commit removes the temp
/// — a crash or error mid-save never corrupts the previous file.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path)
      : path_(std::move(path)), tmp_(path_ + ".tmp") {
    file_.reset(std::fopen(tmp_.c_str(), "wb"));
  }

  ~AtomicFile() {
    if (file_ != nullptr) {
      file_.reset();
      std::remove(tmp_.c_str());
    }
  }

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  /// Null when the temp file could not be opened.
  std::FILE* get() const { return file_.get(); }
  explicit operator bool() const { return file_ != nullptr; }

  Status Commit() {
    if (file_ == nullptr) {
      return Status::IOError("cannot open " + tmp_ + " for writing");
    }
    if (std::fflush(file_.get()) != 0) {
      return Status::IOError(tmp_ + ": flush failed");
    }
    file_.reset();  // fclose
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
      std::remove(tmp_.c_str());
      return Status::IOError("cannot rename " + tmp_ + " to " + path_);
    }
    return Status::OK();
  }

 private:
  std::string path_;
  std::string tmp_;
  FilePtr file_;
};

}  // namespace rpq::io
