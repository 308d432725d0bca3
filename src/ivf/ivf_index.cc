#include "ivf/ivf_index.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <shared_mutex>

#include "common/file_io.h"
#include "common/logging.h"
#include "quant/adc.h"
#include "quant/kmeans.h"
#include "quant/split.h"
#include "simd/simd.h"

namespace rpq::ivf {
namespace {

// Candidate selection rides refine::CandidateBefore's strict total order on
// (estimate, id) — the kept set is independent of scan order, which is what
// lets SearchBatch's grouped list traversal reproduce per-query Search
// exactly.
using refine::CandidateBefore;

using io::FilePtr;
using io::ReadAll;
using io::WriteAll;

constexpr char kMagic[4] = {'R', 'P', 'Q', 'I'};
// v2 adds one u8 residual flag to the header; v1 files (no flag, residual
// regime did not exist) still load. v3 appends a CRC32 trailer over every
// preceding byte and is what Save now writes (atomically, temp+rename);
// v1/v2 files still load, un-checked. List payloads are identical across
// versions — packed blocks and split cross constants are derived state.
constexpr uint32_t kVersion = 3;
constexpr uint32_t kMinVersion = 1;
constexpr uint32_t kCrcVersion = 3;

// q - centroid, the query every residual-regime table is built from.
inline void ResidualQuery(const float* query, const float* centroid,
                          size_t dim, float* out) {
  for (size_t d = 0; d < dim; ++d) out[d] = query[d] - centroid[d];
}

}  // namespace

IvfIndex::IvfIndex(const quant::VectorQuantizer& quantizer,
                   const IvfOptions& options, size_t dim,
                   std::vector<float> centroids)
    : quantizer_(quantizer),
      options_(options),
      dim_(dim),
      nlist_(centroids.size() / dim),
      centroids_(std::move(centroids)) {
  RPQ_CHECK(nlist_ > 0);
  const size_t packed_size =
      split() ? 2 * quantizer_.code_size() : quantizer_.code_size();
  lists_.resize(nlist_);
  for (auto& list : lists_) {
    list.packed = quant::PackedCodes::Pack(nullptr, 0, packed_size);
  }
}

void IvfIndex::RepackList(InvertedList& list) const {
  const size_t m = quantizer_.code_size();
  const size_t count = list.ids.size();
  if (const quant::SplitPqModel* model = quantizer_.split_model()) {
    std::vector<uint8_t> expanded(count * 2 * m);
    list.cross.resize(count);
    for (size_t i = 0; i < count; ++i) {
      const uint8_t* code = list.codes.data() + i * m;
      quant::ExpandSplitCode(code, m, expanded.data() + i * 2 * m);
      list.cross[i] = model->CrossSum(code);
    }
    list.packed = quant::PackedCodes::Pack(expanded.data(), count, 2 * m);
  } else {
    list.packed = quant::PackedCodes::Pack(list.codes.data(), count, m);
  }
}

void IvfIndex::AppendPacked(InvertedList& list, const uint8_t* code) const {
  if (const quant::SplitPqModel* model = quantizer_.split_model()) {
    thread_local std::vector<uint8_t> expanded;
    const size_t m = quantizer_.code_size();
    expanded.resize(2 * m);
    quant::ExpandSplitCode(code, m, expanded.data());
    list.packed.Append(expanded.data());
    list.cross.push_back(model->CrossSum(code));
  } else {
    list.packed.Append(code);
  }
}

std::vector<float> IvfIndex::TrainCoarse(const Dataset& base,
                                         const IvfOptions& options) {
  RPQ_CHECK(!base.empty());
  quant::KMeansOptions kopt;
  kopt.k = std::max<size_t>(1, options.nlist);
  kopt.max_iters = options.kmeans_iters;
  kopt.seed = options.seed;
  size_t train_n = base.size();
  if (options.train_sample > 0) {
    train_n = std::min(train_n, options.train_sample);
  }
  auto km = quant::RunKMeans(base.data(), train_n, base.dim(), kopt);
  return std::move(km.centroids);
}

std::unique_ptr<IvfIndex> IvfIndex::Build(
    const Dataset& base, const quant::VectorQuantizer& quantizer,
    const IvfOptions& options) {
  return BuildWithCentroids(base, TrainCoarse(base, options), quantizer,
                            options);
}

std::unique_ptr<IvfIndex> IvfIndex::BuildWithCentroids(
    const Dataset& base, std::vector<float> centroids,
    const quant::VectorQuantizer& quantizer, const IvfOptions& options) {
  RPQ_CHECK(!base.empty());
  RPQ_CHECK_EQ(base.dim(), quantizer.dim());
  RPQ_CHECK(quant::FastScanCapable(quantizer) &&
            "IVF FastScan lists need a 4-bit quantizer (K <= 16) or a "
            "split-trained K = 256 one (quant/split.h) within 256 table rows");
  RPQ_CHECK(!centroids.empty() && centroids.size() % base.dim() == 0);
  const size_t nlist = centroids.size() / base.dim();

  std::unique_ptr<IvfIndex> index(
      new IvfIndex(quantizer, options, base.dim(), std::move(centroids)));

  // Assignment is one NearestCentroid pass over the FINAL centroids — not
  // the k-means result's assignment, which is stale by one update step. A
  // vector must live in the cell query-time routing maps it to, or a
  // nprobe = 1 probe of the right centroid could miss it.
  std::vector<uint32_t> assign(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    assign[i] = quant::NearestCentroid(base[i], index->centroids_.data(), nlist,
                                       base.dim());
  }

  std::vector<uint8_t> codes;
  if (options.residual) {
    // Residual IVFADC: every row quantizes against its OWN cell's centroid,
    // so the quantizer sees the tight residual ball instead of the corpus.
    const size_t dim = base.dim();
    std::vector<float> resid(base.size() * dim);
    for (size_t i = 0; i < base.size(); ++i) {
      ResidualQuery(base[i], index->centroids_.data() + assign[i] * dim, dim,
                    resid.data() + i * dim);
    }
    Dataset residual_set(base.size(), dim, std::move(resid));
    codes = quantizer.EncodeDataset(residual_set);
  } else {
    codes = quantizer.EncodeDataset(base);
  }
  const size_t m = quantizer.code_size();

  std::vector<size_t> counts(nlist, 0);
  for (uint32_t a : assign) ++counts[a];
  for (size_t l = 0; l < nlist; ++l) {
    auto& list = index->lists_[l];
    list.ids.reserve(counts[l]);
    list.codes.reserve(counts[l] * m);
    if (options.store_vectors) list.vectors.reserve(counts[l] * base.dim());
  }
  for (size_t i = 0; i < base.size(); ++i) {
    auto& list = index->lists_[assign[i]];
    list.ids.push_back(static_cast<uint32_t>(i));
    list.codes.insert(list.codes.end(), codes.begin() + i * m,
                      codes.begin() + (i + 1) * m);
    if (options.store_vectors) {
      list.vectors.insert(list.vectors.end(), base[i], base[i] + base.dim());
    }
  }
  for (auto& list : index->lists_) {
    index->RepackList(list);
  }
  index->num_codes_ = base.size();
  return index;
}

std::unique_ptr<IvfIndex> IvfIndex::CreateEmpty(
    std::vector<float> centroids, size_t dim,
    const quant::VectorQuantizer& quantizer, const IvfOptions& options) {
  RPQ_CHECK(dim > 0);
  RPQ_CHECK_EQ(dim, quantizer.dim());
  RPQ_CHECK(!centroids.empty() && centroids.size() % dim == 0);
  RPQ_CHECK(quant::FastScanCapable(quantizer) &&
            "IVF FastScan lists need a 4-bit quantizer (K <= 16) or a "
            "split-trained K = 256 one (quant/split.h) within 256 table rows");
  return std::unique_ptr<IvfIndex>(
      new IvfIndex(quantizer, options, dim, std::move(centroids)));
}

uint32_t IvfIndex::Insert(const float* vec) {
  // Encode and route outside the lock — both read immutable state only.
  // Residual mode must route FIRST: the code quantizes the offset from the
  // owning cell's centroid.
  thread_local std::vector<uint8_t> code;
  code.resize(quantizer_.code_size());
  const uint32_t l =
      quant::NearestCentroid(vec, centroids_.data(), nlist_, dim_);
  if (options_.residual) {
    thread_local std::vector<float> resid;
    resid.resize(dim_);
    ResidualQuery(vec, centroids_.data() + size_t{l} * dim_, dim_,
                  resid.data());
    quantizer_.Encode(resid.data(), code.data());
  } else {
    quantizer_.Encode(vec, code.data());
  }

  std::unique_lock<WriterPriorityMutex> lock(mu_);
  InvertedList& list = lists_[l];
  const uint32_t id = static_cast<uint32_t>(num_codes_++);
  list.ids.push_back(id);
  list.codes.insert(list.codes.end(), code.begin(), code.end());
  AppendPacked(list, code.data());
  if (options_.store_vectors) {
    list.vectors.insert(list.vectors.end(), vec, vec + dim_);
  }
  return id;
}

size_t IvfIndex::EffectiveNprobe(const IvfSearchOptions& options) const {
  size_t nprobe = options.nprobe > 0 ? options.nprobe : options_.default_nprobe;
  return std::min(std::max<size_t>(nprobe, 1), nlist_);
}

void IvfIndex::RouteLists(const float* query, size_t nprobe,
                          std::vector<uint32_t>* out) const {
  thread_local std::vector<float> d2;
  d2.resize(nlist_);
  simd::L2ToMany(query, centroids_.data(), nlist_, dim_, d2.data());
  out->resize(nlist_);
  for (uint32_t l = 0; l < nlist_; ++l) (*out)[l] = l;
  std::partial_sort(out->begin(), out->begin() + nprobe, out->end(),
                    [&](uint32_t a, uint32_t b) {
                      return CandidateBefore(d2[a], a, d2[b], b);
                    });
  out->resize(nprobe);
}

void IvfIndex::PushCandidates(float bias, float scale, const uint16_t* sums,
                              const float* cross, uint32_t list, size_t count,
                              const std::vector<uint32_t>& ids,
                              refine::CandidateBuffer* buffer) {
  if (cross == nullptr) {
    for (size_t i = 0; i < count; ++i) {
      const float est = bias + scale * static_cast<float>(sums[i]);
      buffer->Push(est, ids[i], (uint64_t{list} << 32) | i);
    }
    return;
  }
  // Split regime: the query-independent cross term rejoins the estimate as
  // the stored per-vector float (see quant/split.h).
  for (size_t i = 0; i < count; ++i) {
    const float est = bias + scale * static_cast<float>(sums[i]) + cross[i];
    buffer->Push(est, ids[i], (uint64_t{list} << 32) | i);
  }
}

IvfSearchResult IvfIndex::FinishQuery(const float* query,
                                      const quant::DistanceLut* lut,
                                      refine::CandidateBuffer& buffer, size_t k,
                                      refine::RerankMode mode, IvfStats stats,
                                      obs::QueryTrace* trace) const {
  // Per-query stats roll-up (one TLS add per counter, every Search path
  // funnels through here).
  if (obs::MetricsEnabled()) {
    static const obs::CounterId queries = obs::GetCounter("ivf.queries");
    static const obs::CounterId cells = obs::GetCounter("ivf.cells_probed");
    static const obs::CounterId codes = obs::GetCounter("ivf.codes_scanned");
    obs::Add(queries, 1);
    obs::Add(cells, stats.lists_probed);
    obs::Add(codes, stats.codes_scanned);
  }
  IvfSearchResult out;
  out.stats = stats;
  mode = refine::ResolveAutoMode(mode, options_.store_vectors);
  if (mode == refine::RerankMode::kExact) {
    RPQ_CHECK(options_.store_vectors &&
              "RerankMode::kExact needs IvfOptions.store_vectors");
    refine::ExactRefiner refiner(
        query, dim_, [this](const refine::Candidate& c) {
          const InvertedList& list = lists_[c.tag >> 32];
          return list.vectors.data() + (c.tag & 0xffffffffu) * dim_;
        });
    out.results = refine::RefineTopK(buffer, refiner, k, trace);
    return out;
  }
  RPQ_CHECK(mode == refine::RerankMode::kAdc &&
            "IVF refinement stages: adc or exact (LinkCode needs a graph)");
  const size_t m = quantizer_.code_size();
  auto code_fn = [this, m](const refine::Candidate& c) {
    const InvertedList& list = lists_[c.tag >> 32];
    return list.codes.data() + (c.tag & 0xffffffffu) * m;
  };
  if (options_.residual) {
    // Residual kAdc: no single lookup table covers all cells, so the
    // float-fidelity stage reconstructs decode(code) + centroid instead.
    refine::ResidualAdcRefiner refiner(
        query, quantizer_, code_fn, [this](const refine::Candidate& c) {
          return centroids_.data() + (c.tag >> 32) * dim_;
        });
    out.results = refine::RefineTopK(buffer, refiner, k, trace);
    return out;
  }
  RPQ_CHECK(lut != nullptr);
  refine::AdcRefiner refiner(*lut, m, code_fn);
  out.results = refine::RefineTopK(buffer, refiner, k, trace);
  return out;
}

quant::FastScanTable IvfIndex::TableFor(const float* query) const {
  if (const quant::SplitPqModel* model = quantizer_.split_model()) {
    return quant::SplitTable(*model, query);
  }
  return quant::FastScanTable(quantizer_, query);
}

IvfSearchResult IvfIndex::Search(const float* query, size_t k,
                                 const IvfSearchOptions& options) const {
  return std::move(SearchBatch(&query, 1, k, options)[0]);
}

std::vector<IvfSearchResult> IvfIndex::SearchBatch(
    const float* const* queries, size_t nq, size_t k,
    const IvfSearchOptions& options) const {
  std::vector<IvfSearchResult> out(nq);
  if (nq == 0) return out;

  // Non-residual regimes share one table per query across every probed
  // cell, built before the lock and before any scan (the codebook stays
  // cache-resident — the same amortization MemoryIndex::SearchBatch does).
  // 4-bit tables are quantized from the float AdcTable, which also backs the
  // kAdc refinement stage; split tables need that table only when kAdc is
  // the resolved stage. The residual regime cannot share tables across
  // cells — each depends on q - centroid — so it builds them per
  // (cell, query) inside the scan.
  std::vector<quant::AdcTable> luts;
  std::vector<quant::FastScanTable> tables;
  if (!options_.residual) {
    obs::ScopedStage span(obs::Stage::kLutBuild, options.trace);
    const bool need_lut =
        !split() || refine::ResolveAutoMode(options.rerank_mode,
                                            options_.store_vectors) ==
                        refine::RerankMode::kAdc;
    if (need_lut) luts.reserve(nq);
    tables.reserve(nq);
    for (size_t q = 0; q < nq; ++q) {
      if (need_lut) luts.emplace_back(quantizer_, queries[q]);
      tables.push_back(split() ? TableFor(queries[q])
                               : quant::FastScanTable(luts.back()));
    }
  }

  const size_t limit = refine::EffectiveRerankWidth(options.rerank, k);
  std::vector<refine::CandidateBuffer> buffers;
  buffers.reserve(nq);
  for (size_t q = 0; q < nq; ++q) buffers.emplace_back(limit);
  std::vector<IvfStats> stats(nq);

  std::shared_lock<WriterPriorityMutex> lock(mu_);
  const size_t nprobe = EffectiveNprobe(options);

  // Invert the routing into (list, query) pairs — nq*nprobe of them, grouped
  // by list with one sort — so every probed list is scanned once against
  // all of its queries' LUTs. (A per-list bucket array would cost nlist
  // allocations per call and dominate small batches.) A single query's
  // cells are distinct, so it skips the sort and keeps its nearest-first
  // probe order: a deadline then cuts its farthest cells. Scan scratch is
  // thread-local, so steady-state calls allocate only their per-query state
  // (tables, heaps, results).
  thread_local std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.clear();
  pairs.reserve(nq * nprobe);
  {
    obs::ScopedStage span(obs::Stage::kRoute, options.trace);
    thread_local std::vector<uint32_t> probe;
    for (size_t q = 0; q < nq; ++q) {
      RouteLists(queries[q], nprobe, &probe);
      for (uint32_t l : probe) pairs.emplace_back(l, static_cast<uint32_t>(q));
    }
  }
  if (nq > 1) std::sort(pairs.begin(), pairs.end());

  thread_local std::vector<uint8_t> luts_buf;
  thread_local std::vector<uint16_t> sums;
  thread_local std::vector<float> resq;
  std::vector<quant::FastScanTable> cell_tables;  // residual: this cell's
  {
  obs::ScopedStage span(obs::Stage::kScan, options.trace);
  for (size_t p0 = 0; p0 < pairs.size();) {
    if (options.deadline.Expired()) {
      // The remaining groups' queries lose those cells; flag exactly the
      // queries whose probes were skipped.
      for (size_t i = p0; i < pairs.size(); ++i) {
        stats[pairs[i].second].deadline_hit = true;
      }
      break;
    }
    const uint32_t l = pairs[p0].first;
    size_t p1 = p0;
    while (p1 < pairs.size() && pairs[p1].first == l) ++p1;
    const size_t group = p1 - p0;
    const InvertedList& list = lists_[l];
    for (size_t i = p0; i < p1; ++i) ++stats[pairs[i].second].lists_probed;
    if (list.ids.empty()) {  // skip the residual table builds, not just the scan
      p0 = p1;
      continue;
    }
    for (size_t i = p0; i < p1; ++i) {
      stats[pairs[i].second].codes_scanned += list.ids.size();
    }

    // The group's tables: each query's shared one, or in the residual
    // regime this cell's, built from q - centroid.
    if (options_.residual) {
      resq.resize(dim_);
      const float* centroid = centroids_.data() + size_t{l} * dim_;
      cell_tables.clear();
      for (size_t i = p0; i < p1; ++i) {
        ResidualQuery(queries[pairs[i].second], centroid, dim_, resq.data());
        cell_tables.push_back(TableFor(resq.data()));
      }
    }
    auto table = [&](size_t i) -> const quant::FastScanTable& {
      return options_.residual ? cell_tables[i] : tables[pairs[p0 + i].second];
    };

    // One scan of the cell's blocks for the whole group: the multi-query
    // kernel keeps each packed block register-resident across the group's
    // LUTs (and hands a group of one to the single-query kernel).
    const size_t m2 = list.packed.m2;
    luts_buf.resize(group * m2 * 16);
    for (size_t i = 0; i < group; ++i) {
      std::memcpy(luts_buf.data() + i * m2 * 16, table(i).lut8(), m2 * 16);
    }
    const size_t n_blocks = list.packed.num_blocks();
    const size_t stride = n_blocks * quant::PackedCodes::kBlockCodes;
    sums.resize(group * stride);
    simd::AdcFastScanMulti(luts_buf.data(), group, m2, list.packed.data.data(),
                           n_blocks, sums.data());
    for (size_t i = 0; i < group; ++i) {
      PushCandidates(table(i).bias(), table(i).scale(),
                     sums.data() + i * stride,
                     split() ? list.cross.data() : nullptr, l, list.ids.size(),
                     list.ids, &buffers[pairs[p0 + i].second]);
    }
    p0 = p1;
  }
  }
  for (size_t q = 0; q < nq; ++q) {
    out[q] = FinishQuery(queries[q], q < luts.size() ? &luts[q] : nullptr,
                         buffers[q], k, options.rerank_mode, stats[q],
                         options.trace);
  }
  return out;
}

size_t IvfIndex::size() const {
  std::shared_lock<WriterPriorityMutex> lock(mu_);
  return num_codes_;
}

size_t IvfIndex::list_size(size_t l) const {
  std::shared_lock<WriterPriorityMutex> lock(mu_);
  return lists_[l].ids.size();
}

size_t IvfIndex::MemoryBytes() const {
  std::shared_lock<WriterPriorityMutex> lock(mu_);
  size_t total = centroids_.size() * sizeof(float);
  for (const auto& list : lists_) {
    total += list.ids.size() * sizeof(uint32_t) + list.codes.size() +
             list.packed.data.size() + list.vectors.size() * sizeof(float) +
             list.cross.size() * sizeof(float);
  }
  return total;
}

Status IvfIndex::Save(const std::string& path) const {
  std::shared_lock<WriterPriorityMutex> lock(mu_);
  io::AtomicFile file(path);
  if (!file) return Status::IOError("cannot open " + path + " for writing");
  io::CrcWriter w(file.get());
  const uint32_t dim = static_cast<uint32_t>(dim_);
  const uint32_t nlist = static_cast<uint32_t>(nlist_);
  const uint32_t code_size = static_cast<uint32_t>(quantizer_.code_size());
  const uint8_t store_vectors = options_.store_vectors ? 1 : 0;
  const uint8_t residual = options_.residual ? 1 : 0;
  const uint32_t default_nprobe = static_cast<uint32_t>(options_.default_nprobe);
  const uint64_t num_codes = num_codes_;
  if (!w.Write(kMagic, 4) || !w.Write(&kVersion, 4) || !w.Write(&dim, 4) ||
      !w.Write(&nlist, 4) || !w.Write(&code_size, 4) ||
      !w.Write(&store_vectors, 1) || !w.Write(&residual, 1) ||
      !w.Write(&default_nprobe, 4) || !w.Write(&num_codes, 8) ||
      !w.Write(centroids_.data(), centroids_.size() * sizeof(float))) {
    return Status::IOError(path + ": header write failed");
  }
  for (const auto& list : lists_) {
    const uint64_t count = list.ids.size();
    if (!w.Write(&count, 8) ||
        !w.Write(list.ids.data(), count * sizeof(uint32_t)) ||
        !w.Write(list.codes.data(), list.codes.size()) ||
        (store_vectors != 0 &&
         !w.Write(list.vectors.data(), list.vectors.size() * sizeof(float)))) {
      return Status::IOError(path + ": list write failed");
    }
  }
  if (!w.WriteTrailer()) return Status::IOError(path + ": trailer write failed");
  return file.Commit();
}

Result<std::unique_ptr<IvfIndex>> IvfIndex::Load(
    const std::string& path, const quant::VectorQuantizer& quantizer) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IOError("cannot open " + path);
  io::CrcReader r(f.get());
  char magic[4];
  uint32_t version = 0, dim = 0, nlist = 0, code_size = 0, default_nprobe = 0;
  uint8_t store_vectors = 0, residual = 0;
  uint64_t num_codes = 0;
  if (!r.Read(magic, 4) || std::memcmp(magic, kMagic, 4) != 0) {
    return Status::IOError(path + ": not an RPQ IVF index file");
  }
  if (!r.Read(&version, 4) || version < kMinVersion || version > kVersion) {
    return Status::IOError(path + ": unsupported version");
  }
  const bool checked = version >= kCrcVersion;
  if (!r.Read(&dim, 4) || !r.Read(&nlist, 4) || !r.Read(&code_size, 4) ||
      !r.Read(&store_vectors, 1) ||
      (version >= 2 && !r.Read(&residual, 1)) ||
      !r.Read(&default_nprobe, 4) || !r.Read(&num_codes, 8)) {
    return Status::IOError(path + ": truncated header");
  }
  if (dim == 0 || nlist == 0 || code_size == 0) {
    return Status::IOError(path + ": invalid index shape");
  }
  if (dim != quantizer.dim() || code_size != quantizer.code_size() ||
      !quant::FastScanCapable(quantizer)) {
    return Status::InvalidArgument(path +
                                   ": quantizer does not match saved index");
  }
  // Bound every header-declared size by what the file can actually hold
  // BEFORE allocating from it — a corrupt count must surface as IOError,
  // not as a std::length_error abort inside vector::resize.
  const long long bytes_left = io::BytesRemaining(f.get());
  const uint64_t row_bytes =
      sizeof(uint32_t) + code_size +
      (store_vectors != 0 ? uint64_t{dim} * sizeof(float) : 0);
  if (bytes_left < 0 ||
      num_codes > static_cast<uint64_t>(bytes_left) / row_bytes ||
      size_t{nlist} * dim >
          static_cast<uint64_t>(bytes_left) / sizeof(float)) {
    return Status::IOError(path + ": header sizes exceed file contents");
  }
  std::vector<float> centroids(size_t{nlist} * dim);
  if (!r.Read(centroids.data(), centroids.size() * sizeof(float))) {
    return Status::IOError(path + ": truncated centroids");
  }
  IvfOptions options;
  options.nlist = nlist;
  options.store_vectors = store_vectors != 0;
  options.residual = residual != 0;
  options.default_nprobe = default_nprobe > 0 ? default_nprobe : 1;
  std::unique_ptr<IvfIndex> index(
      new IvfIndex(quantizer, options, dim, std::move(centroids)));
  uint64_t total = 0;
  for (auto& list : index->lists_) {
    uint64_t count = 0;
    if (!r.Read(&count, 8)) {
      return Status::IOError(path + ": truncated list header");
    }
    if (count > num_codes - total) {
      return Status::IOError(path + ": list counts exceed header total");
    }
    list.ids.resize(count);
    list.codes.resize(count * code_size);
    if (!r.Read(list.ids.data(), count * sizeof(uint32_t)) ||
        !r.Read(list.codes.data(), list.codes.size())) {
      return Status::IOError(path + ": truncated list data");
    }
    if (store_vectors != 0) {
      list.vectors.resize(count * dim);
      if (!r.Read(list.vectors.data(), list.vectors.size() * sizeof(float))) {
        return Status::IOError(path + ": truncated list vectors");
      }
    }
    index->RepackList(list);
    total += count;
  }
  if (total != num_codes) {
    return Status::IOError(path + ": list totals disagree with header");
  }
  if (checked && !r.VerifyTrailer()) {
    return Status::IOError(path +
                           ": checksum mismatch (corrupt or torn file)");
  }
  index->num_codes_ = num_codes;
  return index;
}

}  // namespace rpq::ivf
