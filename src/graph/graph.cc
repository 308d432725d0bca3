#include "graph/graph.h"

#include "common/file_io.h"
#include "graph/build_steps.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

namespace rpq::graph {

VisitedTable* TlsVisitedTable(size_t n) {
  thread_local VisitedTable table(0);
  if (table.size() < n) table.Resize(n);
  return &table;
}

DegreeStats ProximityGraph::ComputeDegreeStats() const {
  DegreeStats s;
  if (adj_.empty()) return s;
  s.min_degree = adj_[0].size();
  for (const auto& nb : adj_) {
    s.min_degree = std::min(s.min_degree, nb.size());
    s.max_degree = std::max(s.max_degree, nb.size());
    s.num_edges += nb.size();
  }
  s.avg_degree = static_cast<double>(s.num_edges) / adj_.size();
  return s;
}

double ProximityGraph::ReachableFraction() const {
  if (adj_.empty()) return 0.0;
  std::vector<bool> reached(adj_.size(), false);
  return static_cast<double>(FloodFill(*this, entry_, &reached)) / adj_.size();
}

namespace {

// "RPQG" v1 (little-endian): magic | u32 version | u64 n | u32 entry
// | per vertex: u32 degree | u32 neighbor ids[degree]
// | u32 CRC32 over every preceding byte, then end of file.
// Save writes it atomically (temp + rename); Load reads only this layout.
constexpr char kGraphMagic[4] = {'R', 'P', 'Q', 'G'};
constexpr uint32_t kGraphVersion = 1;

}  // namespace

Status ProximityGraph::Save(const std::string& path) const {
  io::AtomicFile file(path);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  io::CrcWriter w(file.get());
  const uint64_t n = adj_.size();
  const uint32_t entry = entry_;
  if (!w.Write(kGraphMagic, 4) || !w.Write(&kGraphVersion, 4) ||
      !w.Write(&n, 8) || !w.Write(&entry, 4)) {
    return Status::IOError(path + ": header write failed");
  }
  for (const auto& nb : adj_) {
    const uint32_t deg = static_cast<uint32_t>(nb.size());
    if (!w.Write(&deg, 4) || !w.Write(nb.data(), deg * sizeof(uint32_t))) {
      return Status::IOError(path + ": adjacency write failed");
    }
  }
  if (!w.WriteTrailer()) return Status::IOError(path + ": trailer write failed");
  return file.Commit();
}

Result<ProximityGraph> ProximityGraph::Load(const std::string& path) {
  io::FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open " + path);
  io::CrcReader r(f.get());
  char magic[4];
  uint32_t version = 0;
  if (!r.Read(magic, 4) || std::memcmp(magic, kGraphMagic, 4) != 0) {
    return Status::IOError(path + ": not an RPQ graph file");
  }
  if (!r.Read(&version, 4) || version != kGraphVersion) {
    return Status::IOError(path + ": unsupported graph version");
  }
  uint64_t n = 0;
  uint32_t entry = 0;
  if (!r.Read(&n, 8) || !r.Read(&entry, 4)) {
    return Status::IOError(path + ": truncated header");
  }
  // Bound the vertex allocation by what the file can hold (each vertex costs
  // at least its 4-byte degree word) and validate the entry point before
  // trusting either — a corrupt header must not drive vector::resize or an
  // out-of-range entry into search.
  const long long bytes_left = io::BytesRemaining(f.get());
  if (bytes_left < 0 ||
      n > static_cast<uint64_t>(bytes_left) / sizeof(uint32_t)) {
    return Status::IOError(path + ": header sizes exceed file contents");
  }
  if (n > 0 && entry >= n) {
    return Status::IOError(path + ": entry point out of range");
  }
  ProximityGraph g(n);
  g.set_entry_point(entry);
  for (uint64_t v = 0; v < n; ++v) {
    uint32_t deg = 0;
    if (!r.Read(&deg, 4)) {
      return Status::IOError(path + ": truncated adjacency");
    }
    auto& nb = g.Neighbors(static_cast<uint32_t>(v));
    // A degree no file this size could store is corruption, not a graph.
    if (deg > bytes_left / sizeof(uint32_t)) {
      return Status::IOError(path + ": adjacency degree exceeds file size");
    }
    nb.resize(deg);
    if (!r.Read(nb.data(), deg * sizeof(uint32_t))) {
      return Status::IOError(path + ": truncated adjacency");
    }
    for (uint32_t u : nb) {
      if (u >= n) {
        return Status::IOError(path + ": neighbor id out of range");
      }
    }
  }
  RPQ_RETURN_NOT_OK(r.VerifyTrailer(path));
  return g;
}

}  // namespace rpq::graph
