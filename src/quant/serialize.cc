#include "quant/serialize.h"

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/file_io.h"
#include "quant/split.h"

namespace rpq::quant {
namespace {

constexpr char kMagic[4] = {'R', 'P', 'Q', 'Q'};
constexpr char kCodesMagic[4] = {'R', 'P', 'Q', 'C'};
// The two RPQQ layouts (serialize.h); pre-CRC versions 1 and 2 are rejected.
constexpr uint32_t kModelVersion = 3;
constexpr uint32_t kSplitModelVersion = 4;

using io::AtomicFile;
using io::CrcReader;
using io::CrcWriter;
using io::FilePtr;

}  // namespace

Status SaveQuantizer(const PqQuantizer& q, const std::string& path) {
  const SplitPqModel* split = q.split_model();
  if (split != nullptr && q.has_rotation()) {
    return Status::InvalidArgument(
        "split models with a rotation are not serializable");
  }
  AtomicFile file(path);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  CrcWriter w(file.get());
  uint32_t version = split != nullptr ? kSplitModelVersion : kModelVersion;
  uint32_t dim = static_cast<uint32_t>(q.dim());
  uint32_t m = static_cast<uint32_t>(q.num_chunks());
  uint32_t k = static_cast<uint32_t>(q.num_centroids());
  uint8_t has_rot = q.has_rotation() ? 1 : 0;
  if (!w.Write(kMagic, 4) || !w.Write(&version, 4) || !w.Write(&dim, 4) ||
      !w.Write(&m, 4) || !w.Write(&k, 4) || !w.Write(&has_rot, 1)) {
    return Status::IOError(path + ": header write failed");
  }
  if (split != nullptr) {
    uint8_t has_split = 1;
    if (!w.Write(&has_split, 1) ||
        !w.Write(split->a.data(), split->a.num_floats() * sizeof(float)) ||
        !w.Write(split->b.data(), split->b.num_floats() * sizeof(float))) {
      return Status::IOError(path + ": split codebook write failed");
    }
    if (!w.WriteTrailer()) return Status::IOError(path + ": trailer write failed");
    return file.Commit();
  }
  const Codebook& book = q.codebook();
  if (!w.Write(book.data(), book.num_floats() * sizeof(float))) {
    return Status::IOError(path + ": codebook write failed");
  }
  if (has_rot != 0) {
    const linalg::Matrix r = q.rotation();
    if (!w.Write(r.data(), dim * size_t{dim} * sizeof(float))) {
      return Status::IOError(path + ": rotation write failed");
    }
  }
  if (!w.WriteTrailer()) return Status::IOError(path + ": trailer write failed");
  return file.Commit();
}

Result<std::unique_ptr<PqQuantizer>> LoadQuantizer(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open " + path);
  CrcReader r(f.get());
  char magic[4];
  uint32_t version = 0, dim = 0, m = 0, k = 0;
  uint8_t has_rot = 0;
  if (!r.Read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IOError(path + ": not an RPQ quantizer file");
  }
  if (!r.Read(&version, 4) ||
      (version != kModelVersion && version != kSplitModelVersion)) {
    return Status::IOError(path + ": unsupported version");
  }
  const bool is_split = version == kSplitModelVersion;
  if (!r.Read(&dim, 4) || !r.Read(&m, 4) || !r.Read(&k, 4) ||
      !r.Read(&has_rot, 1)) {
    return Status::IOError(path + ": truncated header");
  }
  if (dim == 0 || m == 0 || k == 0 || k > 256 || dim % m != 0) {
    return Status::IOError(path + ": invalid model shape");
  }
  uint8_t has_split = 0;
  if (is_split && !r.Read(&has_split, 1)) {
    return Status::IOError(path + ": truncated header");
  }
  if (is_split && (has_split == 0 || has_rot != 0 || k != 256)) {
    return Status::IOError(path + ": invalid split model header");
  }
  // Bound every size the header declares by what the file can hold BEFORE
  // allocating from it, as LoadCodes does: a hostile dim must surface as
  // IOError, not as std::bad_alloc inside a Codebook or the rotation. Sizes
  // are in floats; k * dim < 2^41 and dim * dim < 2^64 cannot overflow.
  const long long bytes_left = io::BytesRemaining(f.get());
  const uint64_t book_floats = uint64_t{is_split ? 2 * 16u : k} * dim;
  const uint64_t rot_floats = has_rot != 0 ? uint64_t{dim} * dim : 0;
  const uint64_t avail =
      bytes_left > 0 ? static_cast<uint64_t>(bytes_left) / sizeof(float) : 0;
  if (book_floats > avail || rot_floats > avail - book_floats) {
    return Status::IOError(path + ": header sizes exceed file contents");
  }
  if (is_split) {
    Codebook a(m, 16, dim / m);
    Codebook b(m, 16, dim / m);
    if (!r.Read(a.data(), a.num_floats() * sizeof(float)) ||
        !r.Read(b.data(), b.num_floats() * sizeof(float))) {
      return Status::IOError(path + ": truncated split codebooks");
    }
    RPQ_RETURN_NOT_OK(r.VerifyTrailer(path));
    return MakeSplitQuantizer(std::move(a), std::move(b));
  }
  Codebook book(m, k, dim / m);
  if (!r.Read(book.data(), book.num_floats() * sizeof(float))) {
    return Status::IOError(path + ": truncated codebook");
  }
  std::optional<linalg::Matrix> rotation;
  if (has_rot != 0) {
    linalg::Matrix rot(dim, dim);
    if (!r.Read(rot.data(), dim * size_t{dim} * sizeof(float))) {
      return Status::IOError(path + ": truncated rotation");
    }
    rotation = std::move(rot);
  }
  RPQ_RETURN_NOT_OK(r.VerifyTrailer(path));
  return std::make_unique<PqQuantizer>(std::move(book), std::move(rotation));
}

Status SaveCodes(const std::vector<uint8_t>& codes, size_t code_size,
                 const std::string& path) {
  if (code_size == 0 || codes.size() % code_size != 0) {
    return Status::InvalidArgument("codes size not a multiple of code_size");
  }
  AtomicFile file(path);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  CrcWriter w(file.get());
  uint64_t n = codes.size() / code_size;
  uint32_t cs = static_cast<uint32_t>(code_size);
  if (!w.Write(kCodesMagic, 4) || !w.Write(&n, 8) || !w.Write(&cs, 4) ||
      !w.Write(codes.data(), codes.size()) || !w.WriteTrailer()) {
    return Status::IOError(path + ": write failed");
  }
  return file.Commit();
}

Result<std::vector<uint8_t>> LoadCodes(const std::string& path,
                                       size_t* code_size) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open " + path);
  CrcReader r(f.get());
  char magic[4];
  uint64_t n = 0;
  uint32_t cs = 0;
  if (!r.Read(magic, 4) || std::memcmp(magic, kCodesMagic, 4) != 0 ||
      !r.Read(&n, 8) || !r.Read(&cs, 4) || cs == 0) {
    return Status::IOError(path + ": bad codes header");
  }
  // Bound the n * cs allocation by what the file can hold before trusting
  // the header.
  const long long bytes_left = io::BytesRemaining(f.get());
  if (bytes_left < 0 || n > static_cast<uint64_t>(bytes_left) / cs) {
    return Status::IOError(path + ": header sizes exceed file contents");
  }
  std::vector<uint8_t> codes(n * uint64_t{cs});
  if (!r.Read(codes.data(), codes.size())) {
    return Status::IOError(path + ": truncated codes");
  }
  RPQ_RETURN_NOT_OK(r.VerifyTrailer(path));
  if (code_size != nullptr) *code_size = cs;
  return codes;
}

}  // namespace rpq::quant
