// rpq_tool — command-line front end for the library, covering the full
// offline pipeline a deployment runs:
//
//   rpq_tool gen          --name sift --n 10000 --queries 100 --out data/
//   rpq_tool stats        --base data/base.fvecs
//   rpq_tool build-graph  --base data/base.fvecs --type vamana --out g.bin
//   rpq_tool train        --base data/base.fvecs --graph g.bin
//                         --method rpq --m 16 --k 256 [--nbits 4]
//                         --out model.rpqq
//   rpq_tool encode       --base data/base.fvecs --model model.rpqq
//                         --out codes.bin
//   rpq_tool build-ivf    --base data/base.fvecs --model model.rpqq
//                         --out ivf.bin [--nlist 64] [--nprobe 8]
//                         [--store-vectors] [--train-sample 0]
//                         [--residual [--nbits 8] [--m 16]]
//   rpq_tool search       <backend flags> --queries data/queries.fvecs
//                         [--k 10] [--dump-top1 path] [--trace]
//                         [--sweep-nprobe 1,2,4,...] [--sweep-csv out.csv]
//   rpq_tool serve-bench  <backend flags> --queries data/queries.fvecs
//                         [--threads 4] [--k 10] [--total 0] [--rate 0]
//                         [--batch 0] [--metrics-json out.json]
//                         [--deadline-us 0] [--shed 0] [--brownout 0]
//                         [--stats-port P] [--window-secs 5] [--slow-us 0]
//                         [--slow-capacity 256] [--slow-json out.json]
//   rpq_tool bench-diff   baseline.json candidate.json [--max-regress 10]
//                         [--max-recall-regress 10]
//   rpq_tool metrics-validate --json out.json [--require name1,name2,...]
//                         [--diff older.json [--interval-secs 1]]
//
// search and serve-bench share one list of backend flags, parsed in one
// place (MakeBackend), so the same flags serve the same deployment in both.
// MakeBackend also gathers the per-query knobs (--k, --beam or --nprobe,
// --rerank, --rerank-mode) into one serve::QuerySpec that every query copies.
// search replays its queries serially through the backend's
// serve::SearchService; serve-bench load-tests that same service.
//
//   --base data/base.fvecs --model model.rpqq [--index memory|disk|ivf]
//   [--hybrid]      same as --index disk; an error with --index ivf
//   memory, disk:   --graph g.bin [--beam 64] [--mode adc|sdc|fastscan]
//                   [--rerank N] [--rerank-mode adc|exact|linkcode]
//                   [--store-vectors]
//   disk:           [--queue-depth 8] [--io-width 1] [--readahead 0]
//                   [--disk-error-rate 0] [--disk-spike-rate 0]
//   ivf:            [--ivf ivf.bin] [--nlist 64] [--nprobe P] [--residual]
//                   [--store-vectors] [--rerank N] [--rerank-mode adc|exact]
//   memory shards:  [--shards 1] [--parallel-shards] [--shard-timeout-us 0]
//                   [--hedge-us 0] [--stall-ms 2] [--degree 32]
//                   [--build-beam 64]
//   faults:         [--faults "point=rate,...,seed=N"] [--fault-seed N]
//
// Observability (src/obs/): search --trace threads a per-query obs::QueryTrace
// through the service and prints a per-stage time breakdown plus the search
// stats (hops, distance evals, visited-table hits; lists probed and codes
// scanned for IVF) for the first few queries, the stage totals, and a
// `counters:` line with the per-query rate of every registry counter the
// replay moved. serve-bench --metrics-json enables the process-wide
// metrics registry for the run and writes the obs::DumpJson() snapshot —
// per-stage latency histograms, backend counters, batcher occupancy — to the
// given path; --batch N routes the open-loop leg through a MicroBatcher of
// that size, whose batches take the engine's admission path.
// metrics-validate parses such a snapshot with the in-repo JSON reader,
// checks the schema, and fails if any --require'd metric is absent (the CI
// smoke leg runs it against the serve-bench artifact);
// --diff older.json additionally prints the windowed delta between two
// snapshots (counter rates over --interval-secs, interval percentiles from
// histogram bucket deltas).
//
// Live introspection (see README "Live introspection"): serve-bench
// --stats-port P serves /metrics (Prometheus text), /metrics.json (DumpJson
// v1), /health (windowed QPS + degradation ratios; 503 when degraded past
// threshold), and /slow (flight-recorder dump) on 127.0.0.1:P for the whole
// run (port 0 picks an ephemeral one, printed at startup). --slow-us T arms
// the flight recorder's latency criterion (degraded/deadline/shed/hedged
// queries are always admitted); --slow-capacity sizes its ring; --slow-json
// writes the end-of-run dump for offline checks. bench-diff is the per-PR
// regression gate over checked-in bench summaries (BENCH_serve.json,
// BENCH_ivf.json): direction is inferred from metric names (recall/QPS must
// not drop, latency/percentiles must not rise past tolerance) and the exit
// code is non-zero on any regression, so CI turns red when the trajectory
// moves.
//
// --nbits 4 trains a 4-bit model (K = 16); searching such a model with
// --mode fastscan routes through the shuffle-kernel scan path with float-ADC
// rerank (--rerank candidates, 0 = auto). --dump-top1 writes one
// "query_id vertex_id" line per query (ids only — distance bits differ by
// ulps across SIMD backends); the CI smoke job compares the dump between
// RPQ_SIMD=scalar and the dispatched backend to catch FastScan kernel
// divergence end-to-end.
//
// --index ivf serves the non-graph backend: coarse k-means routing over
// --nlist cells, flat FastScan scans of the --nprobe nearest (requires a
// FastScan-capable model: 4-bit, or split-trained K = 256; --graph is
// unused). The index is built in memory or loaded from a build-ivf file
// (--ivf) and served through IvfService, where a query's beam_width slot
// carries its nprobe; --nprobe defaults to the index's own default (the
// --nprobe it was built with). search --sweep-nprobe prints a recall/QPS
// operating curve over the given comma-separated nprobe values (an error
// without --index ivf), and --sweep-csv (an error without --sweep-nprobe)
// also writes it as `nprobe,recall@10,us_per_query` rows.
// --index memory is the in-memory graph backend (alias: graph); --index disk
// the hybrid one.
//
// --residual selects residual IVFADC: codes quantize x - centroid of the
// owning cell. Because the PQ codebooks must be trained on the residual
// distribution (which only exists once the coarse quantizer is trained),
// build-ivf --residual trains BOTH in-process — the coarse centroids, then
// a residual model: the K = 256 split-table regime under --nbits 8 (the
// default here; scanned by the same shuffle kernels as two nibble planes)
// or a plain 4-bit model under --nbits 4 — and writes the model to --model
// as an OUTPUT. search/serve-bench --index ivf --residual either load
// (--ivf + --model) or rebuild deterministically: TrainCoarse is a pure
// function of (base, nlist, seed), so the same flags reproduce the same
// routing, with the model loaded from --model or retrained when absent.
//
// --rerank / --rerank-mode drive the shared refinement pipeline
// (src/refine/): how many candidates the estimate keeps and which stage
// re-scores them — adc (float lookup tables), exact (raw rows; implies
// --store-vectors for indexes built here), or linkcode (graph-regression
// reconstructions; memory backend only). The memory backend reranks in
// every --mode: fastscan always, adc and sdc when --rerank-mode names a
// stage (without one they return the beam's own top-k and --rerank is
// unused). The disk backend reranks every fetched vector exactly by
// construction: --rerank is ignored there, --rerank-mode exact/auto is
// accepted, and the other stages are rejected rather than silently serving
// something else.
//
// Inputs must agree on dimension: every command that loads --model checks
// it against --base, and search and serve-bench check --queries too. fvecs
// records of mixed dimension are a read error.
//
// Numeric flags are parsed strictly: every size, count, seed and port is a
// non-negative decimal integer (each item of --sweep-nprobe too, and
// --stats-port at most 65535), and every decimal flag is a finite number:
// --disk-error-rate / --disk-spike-rate in [0, 1], --rate, --max-regress
// and --max-recall-regress >= 0, --window-secs and --interval-secs > 0.
// Any other value is a flag error naming the flag.
//
// serve-bench drives the concurrent serving subsystem (src/serve/): a
// closed-loop load test with --threads clients (and, when --rate is given,
// an open-loop run at that arrival QPS), reporting QPS and p50/p95/p99
// latency, all wall clock: the disk backend's simulated device time is
// never added in and is printed on the `disk-io us/query` line, as search
// prints it. Every open-loop query, batched (--batch N) or not, passes the
// engine's admission control (--shed / --brownout), and every served query
// of either loop counts once in serve.completed and serve.latency_ns.
// --shards S > 1 builds an S-shard in-memory deployment (per-shard
// Vamana graphs; --graph is then unused). It serves plain ADC memory shards
// only: any other --index, --mode, or rerank flag is an error there.
//
// Fault tolerance (see README "Fault tolerance"): --deadline-us gives every
// query a latency budget (late queries return partial results flagged
// degraded); --shed / --brownout set the open-loop engine's admission
// watermarks (a nonzero one below --batch is a flag error: the engine counts
// a batch of B as B in-flight queries); --faults installs a seeded
// process-wide injection plan (same syntax as RPQ_FAULTS:
// "disk_read_error=0.01,shard_stall=0.05,seed=7") before any index is
// built, so search honors it too; --disk-error-rate /
// --disk-spike-rate set the SSD simulator's own transient-failure and
// tail-spike rates (--index disk); --shard-timeout-us abandons shards that
// miss the cap (partial merge, shards_lost), --hedge-us sends a hedge to the
// shard's replica after that delay, and --stall-ms sizes the injected shard
// stall — the latter three imply --parallel-shards. Any degradation prints
// an extra report line (answered fraction, degraded %, shed / deadline /
// hedged / shards-lost counts), and the same tallies land in --metrics-json
// as serve.shed, serve.deadline_exceeded, serve.hedges, serve.shard_lost,
// disk.retries, disk.io_errors, and fault.* counters.
//
// Every artifact is a documented binary format (see quant/serialize.h and
// graph/graph.h), so stages can run on different machines.
#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>

#include "common/fault.h"
#include "common/timer.h"
#include "core/rpq.h"
#include "data/ground_truth.h"
#include "data/io_vecs.h"
#include "data/lid.h"
#include "data/synthetic.h"
#include "disk/disk_index.h"
#include "eval/harness.h"
#include "eval/recall.h"
#include "graph/hnsw.h"
#include "ivf/ivf_index.h"
#include "graph/nsg.h"
#include "graph/vamana.h"
#include "obs/flight_recorder.h"
#include "obs/http_exporter.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "quant/kmeans.h"
#include "quant/linkcode.h"
#include "quant/opq.h"
#include "quant/serialize.h"
#include "quant/split.h"
#include "refine/refine.h"
#include "serve/engine.h"
#include "serve/ivf_service.h"
#include "serve/loadgen.h"
#include "serve/sharded.h"

namespace {

using rpq::Dataset;

// A numeric flag value no command can use. The typed getters throw it and
// main reports it as a flag error (exit 1), wherever the flag is read.
struct FlagError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Every size, count, seed and port value: a non-negative decimal integer
// that fits size_t and `max` ("-1" must not wrap to 2^64 - 1, nor "abc"
// read as 0). `key` names the flag in the error.
size_t ParseSize(const std::string& key, const std::string& v,
                 size_t max = SIZE_MAX) {
  const char* end = v.data() + v.size();
  size_t n = 0;
  const auto parsed = std::from_chars(v.data(), end, n);
  if (parsed.ec != std::errc() || parsed.ptr != end || n > max) {
    throw FlagError("--" + key + " expects a non-negative integer" +
                    (max < SIZE_MAX ? " <= " + std::to_string(max) : "") +
                    ", got \"" + v + "\"");
  }
  return n;
}

// What a decimal flag's meaning allows, beyond being a finite number.
enum class Range { kUnit, kNonNegative, kPositive };

struct Flags {
  std::map<std::string, std::string> kv;

  const char* Get(const std::string& key, const char* fallback = nullptr) const {
    auto it = kv.find(key);
    return it == kv.end() ? fallback : it->second.c_str();
  }
  size_t GetSize(const std::string& key, size_t fallback,
                 size_t max = SIZE_MAX) const {
    const char* v = Get(key);
    return v == nullptr ? fallback : ParseSize(key, v, max);
  }
  // Every decimal flag (rates, tolerances, seconds): a finite decimal number
  // in `range`; "abc", NaN and infinity are flag errors, not 0 or a run
  // that never ends.
  double GetDouble(const std::string& key, double fallback,
                   Range range) const {
    const char* v = Get(key);
    if (v == nullptr) return fallback;
    const char* end = v + std::strlen(v);
    double x = 0;
    const auto parsed = std::from_chars(v, end, x);
    const bool in_range = range == Range::kPositive
                              ? x > 0
                              : x >= 0 && (range != Range::kUnit || x <= 1);
    if (parsed.ec != std::errc() || parsed.ptr != end || !std::isfinite(x) ||
        !in_range) {
      static constexpr const char* kWhat[] = {
          "a rate in [0, 1]", "a finite number >= 0", "a finite number > 0"};
      throw FlagError("--" + key + " expects " +
                      kWhat[static_cast<int>(range)] + ", got \"" + v + "\"");
    }
    return x;
  }
  bool Has(const std::string& key) const { return kv.count(key) > 0; }
};

Flags ParseFlags(int argc, char** argv, int first) {
  Flags f;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    std::string key = argv[i] + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      f.kv[key] = argv[++i];
    } else {
      f.kv[key] = "1";  // boolean flag
    }
  }
  return f;
}

// train --split and build-ivf --residual --nbits 8 share this bound: a split
// table has 2m u8 rows, and FastScan caps rows at 256.
constexpr const char* kSplitMaxM =
    "--m must be <= 128 for the K = 256 split regime: its FastScan tables "
    "hold 2m rows, at most 256";

int Fail(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  return 1;
}

rpq::Result<Dataset> LoadBase(const Flags& flags) {
  const char* path = flags.Get("base");
  if (path == nullptr) return rpq::Status::InvalidArgument("--base is required");
  return rpq::io::ReadFvecs(path);
}

// Loads the quantizer at `path` (the --model flag's value) into *model. It
// must encode rows of the base's dimension `dim`: a model of another
// dimension would read past (or short of) every base row it encodes.
rpq::Status LoadModel(const char* path, size_t dim,
                      std::unique_ptr<rpq::quant::PqQuantizer>* model) {
  if (path == nullptr) {
    return rpq::Status::InvalidArgument("--model is required");
  }
  auto loaded = rpq::quant::LoadQuantizer(path);
  if (!loaded.ok()) return loaded.status();
  if (loaded.value()->dim() != dim) {
    return rpq::Status::InvalidArgument(
        "--model has dimension " + std::to_string(loaded.value()->dim()) +
        " but --base has dimension " + std::to_string(dim));
  }
  *model = std::move(loaded.value());
  return rpq::Status::OK();
}

// Loads --queries, whose rows must have the dimension of `base`'s: every
// backend and the ground truth score each query against base rows.
rpq::Result<Dataset> LoadQueriesFor(const Flags& flags, const Dataset& base) {
  const char* path = flags.Get("queries");
  if (path == nullptr) {
    return rpq::Status::InvalidArgument("--queries is required");
  }
  auto queries = rpq::io::ReadFvecs(path);
  if (queries.ok() && queries.value().dim() != base.dim()) {
    return rpq::Status::InvalidArgument(
        "--queries has dimension " + std::to_string(queries.value().dim()) +
        " but --base has dimension " + std::to_string(base.dim()));
  }
  return queries;
}

// Loads a --graph built over `base`: vertex v is row v, so a graph of
// another size would index codes past the end of the base's.
rpq::Result<rpq::graph::ProximityGraph> LoadGraphFor(const char* path,
                                                     const Dataset& base) {
  auto g = rpq::graph::ProximityGraph::Load(path);
  if (g.ok() && g.value().num_vertices() != base.size()) {
    return rpq::Status::InvalidArgument(
        "--graph has " + std::to_string(g.value().num_vertices()) +
        " vertices but --base has " + std::to_string(base.size()) +
        " rows; build the graph over this base");
  }
  return g;
}

// BuildVamana and BuildNsg fill each out-list from more rows than `bound`
// and abort below that; here it is a flag error naming the bound.
std::string TooFewRows(const std::string& type, size_t rows,
                       const std::string& bound, size_t value) {
  return "--type " + type + " needs more base rows than " + bound + " (" +
         std::to_string(value) + "); --base has " + std::to_string(rows);
}

int CmdGen(const Flags& flags) {
  std::string name = flags.Get("name", "sift");
  size_t n = flags.GetSize("n", 10000);
  size_t nq = flags.GetSize("queries", 100);
  uint64_t seed = flags.GetSize("seed", 7);
  std::string out = flags.Get("out", ".");
  Dataset base, queries;
  rpq::synthetic::MakeBaseAndQueries(name, n, nq, seed, &base, &queries);
  auto s1 = rpq::io::WriteFvecs(out + "/base.fvecs", base);
  if (!s1.ok()) return Fail(s1.ToString());
  auto s2 = rpq::io::WriteFvecs(out + "/queries.fvecs", queries);
  if (!s2.ok()) return Fail(s2.ToString());
  std::printf("wrote %zu base + %zu query vectors (%zu dims) to %s\n",
              base.size(), queries.size(), base.dim(), out.c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  const Dataset& d = base.value();
  double lid = rpq::EstimateLid(d, 20, std::min<size_t>(200, d.size() / 2));
  std::printf("vectors: %zu\ndims:    %zu\nLID:     %.1f\nraw MB:  %.2f\n",
              d.size(), d.dim(), lid, d.size() * d.dim() * 4 / 1e6);
  return 0;
}

int CmdBuildGraph(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  std::string type = flags.Get("type", "vamana");
  const char* out = flags.Get("out");
  if (out == nullptr) return Fail("--out is required");

  const size_t rows = base.value().size();
  rpq::graph::ProximityGraph g;
  if (type == "vamana") {
    rpq::graph::VamanaOptions opt;
    opt.degree = flags.GetSize("degree", 32);
    opt.build_beam = flags.GetSize("build-beam", 64);
    if (rows <= opt.degree) {
      return Fail(TooFewRows(type, rows, "--degree", opt.degree));
    }
    g = rpq::graph::BuildVamana(base.value(), opt);
  } else if (type == "hnsw") {
    rpq::graph::HnswOptions opt;
    opt.m = flags.GetSize("degree", 16);
    opt.ef_construction = flags.GetSize("build-beam", 120);
    g = rpq::graph::HnswIndex::Build(base.value(), opt)->Flatten();
  } else if (type == "nsg") {
    rpq::graph::NsgOptions opt;
    opt.degree = flags.GetSize("degree", 32);
    if (rows <= opt.knn_k) {
      return Fail(TooFewRows(type, rows, "its kNN list length", opt.knn_k));
    }
    g = rpq::graph::BuildNsg(base.value(), opt);
  } else {
    return Fail("unknown graph type: " + type + " (vamana|hnsw|nsg)");
  }
  auto stats = g.ComputeDegreeStats();
  std::printf("%s graph: %zu vertices, avg degree %.1f, reachable %.4f\n",
              type.c_str(), g.num_vertices(), stats.avg_degree,
              g.ReachableFraction());
  auto s = g.Save(out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("saved to %s\n", out);
  return 0;
}

int CmdTrain(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  std::string method = flags.Get("method", "rpq");
  const char* out = flags.Get("out");
  if (out == nullptr) return Fail("--out is required");

  // One K rule for every method: codes of --nbits bits index at most
  // 2^nbits centroids (--nbits 4 makes the model eligible for the FastScan
  // search path). A larger --k is a flag error rather than a silent cap; K
  // defaults to that maximum.
  const size_t nbits = flags.GetSize("nbits", 8);
  if (nbits != 8 && nbits != 4) return Fail("--nbits must be 8 or 4");
  const size_t max_k = nbits == 4 ? 16 : 256;
  const size_t k = flags.GetSize("k", max_k);
  if (k > max_k) {
    return Fail("--nbits " + std::to_string(nbits) + " codes hold K <= " +
                std::to_string(max_k) +
                " centroids; for K = 256 on the FastScan path use --nbits 8 "
                "with the split regime (train --method pq --split, or "
                "build-ivf --residual)");
  }

  std::unique_ptr<rpq::quant::PqQuantizer> model;
  if (method == "pq") {
    rpq::quant::PqOptions opt;
    opt.m = flags.GetSize("m", 16);
    opt.k = k;
    opt.nbits = nbits;
    if (flags.Has("split")) {
      // K = 256 additive split regime (quant/split.h): FastScan-capable
      // 8-bit codes, serializable (v2) like any other model.
      if (nbits == 4 || opt.k != 256) {
        return Fail("--split trains the K = 256 regime; use --nbits 8 "
                    "(default K 256)");
      }
      if (opt.m > 128) return Fail(kSplitMaxM);
      model = rpq::quant::TrainSplitPq(base.value(), opt);
    } else {
      model = rpq::quant::PqQuantizer::Train(base.value(), opt);
    }
  } else if (method == "opq") {
    rpq::quant::OpqOptions opt;
    opt.pq.m = flags.GetSize("m", 16);
    opt.pq.k = k;
    opt.pq.nbits = nbits;
    opt.outer_iters = flags.GetSize("iters", 4);
    model = rpq::quant::TrainOpq(base.value(), opt);
  } else if (method == "rpq") {
    const char* gpath = flags.Get("graph");
    if (gpath == nullptr) return Fail("--graph is required for rpq training");
    auto g = LoadGraphFor(gpath, base.value());
    if (!g.ok()) return Fail(g.status().ToString());
    rpq::core::RpqTrainOptions opt;
    opt.m = flags.GetSize("m", 16);
    opt.k = k;
    opt.epochs = flags.GetSize("epochs", 3);
    opt.triplets_per_epoch = flags.GetSize("triplets", 1024);
    opt.routing_queries_per_epoch = flags.GetSize("routing-queries", 48);
    auto res = rpq::core::TrainRpq(base.value(), g.value(), opt);
    std::printf("trained RPQ in %.1fs, final loss %.4f\n",
                res.training_seconds,
                res.epoch_loss.empty() ? 0.0 : res.epoch_loss.back());
    model = std::move(res.quantizer);
  } else {
    return Fail("unknown method: " + method + " (pq|opq|rpq)");
  }
  std::printf("distortion: %.4g, model %.1f KB\n",
              model->Distortion(base.value()), model->ModelSizeBytes() / 1024.0);
  auto s = rpq::quant::SaveQuantizer(*model, out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("saved to %s\n", out);
  return 0;
}

int CmdEncode(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  const char* mpath = flags.Get("model");
  const char* out = flags.Get("out");
  if (mpath == nullptr || out == nullptr) {
    return Fail("--model and --out are required");
  }
  std::unique_ptr<rpq::quant::PqQuantizer> model;
  auto loaded = LoadModel(mpath, base.value().dim(), &model);
  if (!loaded.ok()) return Fail(loaded.ToString());
  auto codes = model->EncodeDataset(base.value());
  auto s = rpq::quant::SaveCodes(codes, model->code_size(), out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("encoded %zu vectors at %zu bytes each (%.1fx compression)\n",
              base.value().size(), model->code_size(),
              static_cast<double>(base.value().dim() * 4) /
                  model->code_size());
  return 0;
}

// Parses --rerank-mode (absent = auto).
rpq::Status GetRerankMode(const Flags& flags, rpq::refine::RerankMode* mode) {
  if (rpq::refine::ParseRerankMode(flags.Get("rerank-mode", "auto"), mode)) {
    return rpq::Status::OK();
  }
  return rpq::Status::InvalidArgument(
      "--rerank-mode must be adc, exact, or linkcode");
}

// IVF refinement-stage validation shared by search, serve-bench, and
// build-ivf. Called with index == nullptr before any index work (the
// stages IVF can never serve) and again with the built/loaded index
// (exact needs the raw rows this particular index retains).
rpq::Status CheckIvfRerankMode(rpq::refine::RerankMode rmode,
                               const rpq::ivf::IvfIndex* index) {
  if (rmode == rpq::refine::RerankMode::kLinkCode) {
    return rpq::Status::InvalidArgument(
        "--rerank-mode linkcode needs a graph backend "
        "(IVF cells have no adjacency to regress over)");
  }
  if (index != nullptr && rmode == rpq::refine::RerankMode::kExact &&
      !index->stores_vectors()) {
    return rpq::Status::InvalidArgument(
        "--rerank-mode exact needs an IVF index with raw rows "
        "(rebuild with --store-vectors)");
  }
  return rpq::Status::OK();
}

// The residual flow's model flags, checked before any training: --nbits 8
// (the default in this flow) trains the K = 256 split-table regime, --nbits
// 4 a plain 4-bit model, and --m must fit the FastScan table's row cap.
rpq::Status ResidualModelOptions(const Flags& flags,
                                 rpq::quant::PqOptions* opt) {
  opt->nbits = flags.GetSize("nbits", 8);
  opt->m = flags.GetSize("m", 16);
  if (opt->nbits != 8 && opt->nbits != 4) {
    return rpq::Status::InvalidArgument("--nbits must be 8 or 4");
  }
  if (opt->nbits == 8 && opt->m > 128) {
    return rpq::Status::InvalidArgument(kSplitMaxM);
  }
  if (opt->m > 256) {
    return rpq::Status::InvalidArgument(
        "--m must be <= 256: FastScan tables hold at most 256 rows");
  }
  return rpq::Status::OK();
}

// Residual-regime model training: the PQ codebooks must see the residual
// distribution (x - centroid), which only exists once the coarse quantizer
// is trained — so the residual flow derives the training set here instead of
// loading a model trained on the raw corpus.
std::unique_ptr<rpq::quant::PqQuantizer> TrainResidualModel(
    const Dataset& base, const std::vector<float>& centroids,
    const rpq::quant::PqOptions& opt) {
  const size_t dim = base.dim();
  const size_t nlist = centroids.size() / dim;
  std::vector<float> resid(base.size() * dim);
  for (size_t i = 0; i < base.size(); ++i) {
    const uint32_t c =
        rpq::quant::NearestCentroid(base[i], centroids.data(), nlist, dim);
    const float* cent = centroids.data() + size_t{c} * dim;
    for (size_t d = 0; d < dim; ++d) {
      resid[i * dim + d] = base[i][d] - cent[d];
    }
  }
  Dataset residual_set(base.size(), dim, std::move(resid));
  if (opt.nbits == 8) {
    return rpq::quant::TrainSplitPq(residual_set, opt);
  }
  return rpq::quant::PqQuantizer::Train(residual_set, opt);
}

// One deployment assembled from the flags: what search replays and what
// serve-bench load-tests. MakeBackend fills a caller-owned Backend in place
// and nothing moves it afterwards, because the indexes hold references to
// its model and graph. Members are declared in borrow order, so each one
// outlives everything that borrows it. The sharded deployment comes last:
// ~ShardedService drains abandoned fan-out tasks, and those tasks still
// touch what the shards borrow (the model, and the caller's base rows).
struct Backend {
  std::unique_ptr<rpq::quant::PqQuantizer> model;
  rpq::graph::ProximityGraph graph;
  std::unique_ptr<rpq::core::MemoryIndex> memory;
  std::unique_ptr<rpq::disk::DiskIndex> disk;
  std::unique_ptr<rpq::ivf::IvfIndex> ivf;
  std::unique_ptr<rpq::quant::LinkCodeIndex> linkcode;  ///< kLinkCode only
  std::unique_ptr<rpq::serve::SearchService> owned_service;
  rpq::serve::ShardedMemoryIndex sharded;
  const rpq::serve::SearchService* service = nullptr;
  /// Every query's knobs: k, beam (nprobe for IVF), rerank, rerank_mode.
  rpq::serve::QuerySpec spec;
};

// The IVF build step, shared by MakeBackend and build-ivf: builds an index
// over `base` into b->model and b->ivf. The plain flow encodes raw rows with
// the model at `model_path`. The --residual flow trains the coarse
// quantizer first (k-means is deterministic in the flags, so a rebuild
// reproduces a saved index's routing) and encodes per-cell residuals with
// the model at `model_path`, or with a freshly trained residual model when
// `model_path` is null. --rerank-mode exact implies --store-vectors: the
// exact stage needs the raw rows resident.
rpq::Status BuildIvf(const Flags& flags, const Dataset& base,
                     const char* model_path, rpq::refine::RerankMode rmode,
                     Backend* b) {
  // Impossible stages are rejected before the (potentially expensive) build.
  RPQ_RETURN_NOT_OK(CheckIvfRerankMode(rmode, nullptr));
  rpq::ivf::IvfOptions opt;
  opt.nlist = flags.GetSize("nlist", 64);
  opt.default_nprobe = flags.GetSize("nprobe", 8);
  opt.store_vectors = flags.Has("store-vectors") ||
                      rmode == rpq::refine::RerankMode::kExact;
  opt.train_sample = flags.GetSize("train-sample", 0);
  opt.residual = flags.Has("residual");
  rpq::quant::PqOptions residual_model;
  if (model_path != nullptr || !opt.residual) {
    RPQ_RETURN_NOT_OK(LoadModel(model_path, base.dim(), &b->model));
    if (!rpq::quant::FastScanCapable(*b->model)) {
      return rpq::Status::InvalidArgument(
          "--index ivf needs a FastScan-capable model: 4-bit (--nbits 4) "
          "with m <= 256, or split-trained K = 256 (train --split / "
          "build-ivf --residual) with m <= 128");
    }
  } else {
    RPQ_RETURN_NOT_OK(ResidualModelOptions(flags, &residual_model));
  }
  rpq::Timer timer;
  std::vector<float> centroids = rpq::ivf::IvfIndex::TrainCoarse(base, opt);
  if (b->model == nullptr) {
    b->model = TrainResidualModel(base, centroids, residual_model);
  }
  b->ivf = rpq::ivf::IvfIndex::BuildWithCentroids(base, std::move(centroids),
                                                  *b->model, opt);
  std::printf("built ivf index: %zu lists over %zu vectors in %.1fs "
              "(%.1f MB)\n",
              b->ivf->nlist(), b->ivf->size(), timer.ElapsedSeconds(),
              b->ivf->MemoryBytes() / 1e6);
  return rpq::Status::OK();
}

// Parses every backend flag (see the header) and fills `b`. Each rule lives
// here once, so search and serve-bench cannot drift: an unknown --index,
// --hybrid with --index ivf, and --shards > 1 on anything but plain-ADC
// memory are flag errors; --nprobe defaults to the index's own default.
rpq::Status MakeBackend(const Flags& flags, const Dataset& base, Backend* b) {
  // --faults installs a process-wide injection plan (same syntax as the
  // RPQ_FAULTS environment variable, which it overrides); --fault-seed
  // replaces just the seed. Installed before any index is built so the SSD
  // simulator's own injector merges it in at construction.
  rpq::fault::Plan plan = rpq::fault::GlobalInjector().plan();
  if (const char* spec = flags.Get("faults")) {
    std::string err;
    if (!rpq::fault::ParsePlan(spec, &plan, &err)) {
      return rpq::Status::InvalidArgument(err);
    }
  }
  if (flags.Has("fault-seed")) plan.seed = flags.GetSize("fault-seed", 1);
  if (flags.Has("faults") || flags.Has("fault-seed")) {
    rpq::fault::SetGlobalPlan(plan);
  }

  std::string kind = flags.Get("index", "memory");
  if (kind == "graph") kind = "memory";  // alias
  if (flags.Has("hybrid")) {
    if (kind == "ivf") {
      return rpq::Status::InvalidArgument(
          "--hybrid selects the disk backend; it conflicts with --index ivf");
    }
    kind = "disk";
  }
  if (kind != "memory" && kind != "disk" && kind != "ivf") {
    return rpq::Status::InvalidArgument("unknown --index: " + kind +
                                        " (memory|disk|ivf)");
  }
  rpq::refine::RerankMode rmode = rpq::refine::RerankMode::kAuto;
  RPQ_RETURN_NOT_OK(GetRerankMode(flags, &rmode));
  const std::string mode_name = flags.Get("mode", "adc");
  rpq::core::DistanceMode mode = rpq::core::DistanceMode::kAdc;
  if (mode_name == "sdc") {
    mode = rpq::core::DistanceMode::kSdc;
  } else if (mode_name == "fastscan") {
    mode = rpq::core::DistanceMode::kFastScan;
  } else if (mode_name != "adc") {
    // A typo'd mode must not silently benchmark plain ADC.
    return rpq::Status::InvalidArgument("unknown --mode: " + mode_name +
                                        " (adc|sdc|fastscan)");
  }
  // The sharded deployment builds plain ADC memory shards; flags it cannot
  // honor must fail loudly, not silently benchmark something else.
  const size_t shards = flags.GetSize("shards", 1);
  if (shards > 1 &&
      (kind != "memory" || mode != rpq::core::DistanceMode::kAdc ||
       flags.Has("rerank") || flags.Has("rerank-mode") ||
       flags.Has("store-vectors"))) {
    return rpq::Status::InvalidArgument(
        "--shards > 1 serves plain ADC memory shards; --index disk|ivf, "
        "--mode sdc|fastscan, --rerank, --rerank-mode, and --store-vectors "
        "are not supported there");
  }
  b->spec.k = flags.GetSize("k", 10);
  b->spec.beam_width = flags.GetSize("beam", 64);
  b->spec.rerank = flags.GetSize("rerank", 0);
  b->spec.rerank_mode = rmode;

  if (kind == "ivf") {
    const char* mpath = flags.Get("model");
    if (const char* path = flags.Get("ivf")) {
      if (mpath == nullptr) {
        return rpq::Status::InvalidArgument(
            "--ivf needs --model (the quantizer the index was built with)");
      }
      RPQ_RETURN_NOT_OK(LoadModel(mpath, base.dim(), &b->model));
      auto loaded = rpq::ivf::IvfIndex::Load(path, *b->model);
      if (!loaded.ok()) return loaded.status();
      b->ivf = std::move(loaded.value());
    } else {
      RPQ_RETURN_NOT_OK(BuildIvf(flags, base, mpath, rmode, b));
    }
    RPQ_RETURN_NOT_OK(CheckIvfRerankMode(rmode, b->ivf.get()));
    b->spec.beam_width = flags.GetSize("nprobe", b->ivf->default_nprobe());
    b->owned_service = std::make_unique<rpq::serve::IvfService>(*b->ivf);
    b->service = b->owned_service.get();
    return rpq::Status::OK();
  }

  RPQ_RETURN_NOT_OK(LoadModel(flags.Get("model"), base.dim(), &b->model));
  if (shards > 1) {
    rpq::graph::VamanaOptions vopt;
    vopt.degree = flags.GetSize("degree", 32);
    vopt.build_beam = flags.GetSize("build-beam", 64);
    rpq::serve::ShardedOptions sopt;
    sopt.shard_timeout_us = flags.GetSize("shard-timeout-us", 0);
    sopt.hedge_delay_us = flags.GetSize("hedge-us", 0);
    sopt.injected_stall_us = flags.GetSize("stall-ms", 2) * 1000;
    // Timeouts and hedging are properties of the parallel fan-out.
    sopt.parallel_shards = flags.Has("parallel-shards") ||
                           sopt.shard_timeout_us > 0 || sopt.hedge_delay_us > 0;
    rpq::Timer build;
    b->sharded = rpq::serve::BuildShardedMemoryIndex(base, *b->model, shards,
                                                     vopt, sopt);
    std::printf("built %zu shards in %.1fs (%.1f MB resident%s)\n",
                b->sharded.shards.size(), build.ElapsedSeconds(),
                b->sharded.MemoryBytes() / 1e6,
                sopt.parallel_shards ? ", parallel fan-out" : "");
    b->service = b->sharded.service.get();
    return rpq::Status::OK();
  }

  const char* gpath = flags.Get("graph");
  if (gpath == nullptr) {
    return rpq::Status::InvalidArgument("--graph is required");
  }
  auto g = LoadGraphFor(gpath, base);
  if (!g.ok()) return g.status();
  b->graph = std::move(g.value());
  if (kind == "disk") {
    // The disk backend's exact-on-fetch rerank is inherent: --rerank is
    // ignored and any other requested stage is a flag error.
    if (rmode != rpq::refine::RerankMode::kAuto &&
        rmode != rpq::refine::RerankMode::kExact) {
      return rpq::Status::InvalidArgument(
          "the disk backend reranks every fetched vector exactly; "
          "--rerank-mode " +
          std::string(rpq::refine::RerankModeName(rmode)) +
          " does not apply");
    }
    rpq::disk::DiskIndexOptions dopt;
    dopt.ssd.transient_error_rate =
        flags.GetDouble("disk-error-rate", 0, Range::kUnit);
    dopt.ssd.latency_spike_rate =
        flags.GetDouble("disk-spike-rate", 0, Range::kUnit);
    dopt.ssd.fault_seed = flags.GetSize("fault-seed", dopt.ssd.fault_seed);
    dopt.ssd.queue_depth = flags.GetSize("queue-depth", dopt.ssd.queue_depth);
    dopt.io_width = flags.GetSize("io-width", dopt.io_width);
    dopt.readahead = flags.GetSize("readahead", dopt.readahead);
    b->disk = rpq::disk::DiskIndex::Build(base, b->graph, *b->model, dopt);
    b->owned_service = std::make_unique<rpq::serve::DiskIndexService>(*b->disk);
    b->service = b->owned_service.get();
    return rpq::Status::OK();
  }

  // The memory backend: every --mode shares one refinement epilogue, which
  // fastscan always runs and adc/sdc run when --rerank-mode names a stage.
  // --rerank-mode exact implies retained rows.
  rpq::core::MemoryIndexOptions mopt;
  mopt.store_vectors = flags.Has("store-vectors") ||
                       rmode == rpq::refine::RerankMode::kExact;
  b->memory = rpq::core::MemoryIndex::Build(base, b->graph, *b->model, mopt);
  if (mode == rpq::core::DistanceMode::kFastScan &&
      !b->memory->fastscan_capable()) {
    return rpq::Status::InvalidArgument(
        "--mode fastscan needs a 4-bit model with m <= 256 (train with "
        "--nbits 4)");
  }
  if (rmode == rpq::refine::RerankMode::kLinkCode) {
    // A Link&Code model shaped like the quantizer (same m/K), with its own
    // least-squares neighbor weights.
    rpq::Timer lc_timer;
    rpq::quant::LinkCodeOptions lopt;
    lopt.pq.m = b->model->num_chunks();
    lopt.pq.k = b->model->num_centroids();
    lopt.pq.nbits = lopt.pq.k <= 16 ? 4 : 8;
    b->linkcode = rpq::quant::LinkCodeIndex::Build(base, b->graph, lopt);
    b->memory->set_linkcode(b->linkcode.get());
    std::printf("linkcode model fit in %.1fs\n", lc_timer.ElapsedSeconds());
  }
  b->owned_service =
      std::make_unique<rpq::serve::MemoryIndexService>(*b->memory, mode);
  b->service = b->owned_service.get();
  return rpq::Status::OK();
}

std::vector<std::string> ParseStringList(const char* s) {
  std::vector<std::string> out;
  while (s != nullptr && *s != '\0') {
    const char* comma = std::strchr(s, ',');
    if (comma == nullptr) {
      if (*s != '\0') out.emplace_back(s);
      break;
    }
    if (comma != s) out.emplace_back(s, comma);
    s = comma + 1;
  }
  return out;
}

// A comma-separated list of sizes, each under ParseSize's rule.
std::vector<size_t> ParseSizeList(const std::string& key, const char* s) {
  std::vector<size_t> out;
  for (const std::string& item : ParseStringList(s)) {
    out.push_back(ParseSize(key, item));
  }
  return out;
}

// Mean recall@k of a serial replay's answers against exact ground truth.
double ReplayRecall(const std::vector<rpq::serve::QueryResult>& out,
                    const std::vector<std::vector<rpq::Neighbor>>& gt,
                    size_t k) {
  std::vector<std::vector<rpq::Neighbor>> results;
  results.reserve(out.size());
  for (const rpq::serve::QueryResult& r : out) results.push_back(r.results);
  return rpq::eval::MeanRecallAtK(results, gt, k);
}

// Simulated device time per query of a serial replay over the disk backend:
// its honest I/O number, kept apart from wall-clock QPS. run_serve.sh
// parses this line into BENCH_serve.json.
void PrintDiskIo(const Backend& backend,
                 const std::vector<rpq::serve::QueryResult>& out) {
  if (backend.disk == nullptr || out.empty()) return;
  double io_seconds = 0;
  for (const rpq::serve::QueryResult& r : out) {
    io_seconds += r.simulated_io_seconds;
  }
  std::printf("disk-io us/query = %.1f (simulated, serial replay)\n",
              io_seconds * 1e6 / static_cast<double>(out.size()));
}

// The --trace report of a search replay: work stats and stage spans for the
// first few queries, stage totals over the run, and the per-query rate of
// every registry counter the replay moved (`moved`). IVF results carry
// lists probed and codes scanned in the hops and dist slots, and IVF has no
// visited table, so its columns are labelled for what they count.
void PrintTrace(const std::vector<rpq::serve::QueryResult>& out,
                const std::vector<rpq::obs::QueryTrace>& traces, bool ivf,
                const rpq::obs::WindowedView& moved) {
  constexpr size_t kPerQueryLines = 8;
  const char* labels[3] = {ivf ? "lists-probed" : "hops",
                           ivf ? "codes-scanned" : "dist",
                           ivf ? nullptr : "visited-hits"};
  rpq::obs::QueryTrace totals;
  for (size_t q = 0; q < traces.size(); ++q) {
    for (size_t s = 0; s < rpq::obs::kNumStages; ++s) {
      const auto stage = static_cast<rpq::obs::Stage>(s);
      const auto& t = traces[q].total(stage);
      if (t.spans > 0) totals.AddSpan(stage, t.nanos);
    }
    if (q >= kPerQueryLines) continue;
    const rpq::graph::SearchStats& st = out[q].stats;
    const size_t row[3] = {st.hops, st.dist_comps, st.visited_hits};
    std::printf("  q%-4zu", q);
    for (size_t c = 0; c < 3; ++c) {
      if (labels[c] != nullptr) std::printf(" %s %-9zu", labels[c], row[c]);
    }
    std::printf("  %s\n", traces[q].Format().c_str());
  }
  const size_t n = traces.size();
  if (n > kPerQueryLines) {
    std::printf("  ... (%zu more queries)\n", n - kPerQueryLines);
  }
  std::printf("trace totals (%zu queries): %s\n", n, totals.Format().c_str());
  std::printf("counters:");
  for (const rpq::obs::WindowedCounter& c : moved.counters) {
    if (c.delta == 0) continue;
    std::printf("  %s %.1f/q", c.name.c_str(),
                static_cast<double>(c.delta) / std::max<size_t>(n, 1));
  }
  std::printf("\n");
}

int CmdBuildIvf(const Flags& flags) {
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  const char* mpath = flags.Get("model");
  const char* out = flags.Get("out");
  if (mpath == nullptr || out == nullptr) {
    return Fail("--model and --out are required");
  }
  // Validate up front: a typo'd --rerank-mode must not silently build an
  // index without the raw rows the intended exact stage needs.
  rpq::refine::RerankMode rmode = rpq::refine::RerankMode::kAuto;
  auto mode_ok = GetRerankMode(flags, &rmode);
  if (!mode_ok.ok()) return Fail(mode_ok.ToString());
  // The residual flow trains its model in-process; --model is then the
  // OUTPUT path for it (search and serve-bench load it back next to --ivf).
  const bool residual = flags.Has("residual");
  Backend b;
  auto built = BuildIvf(flags, base.value(), residual ? nullptr : mpath,
                        rmode, &b);
  if (!built.ok()) return Fail(built.ToString());
  if (residual) {
    auto ms = rpq::quant::SaveQuantizer(*b.model, mpath);
    if (!ms.ok()) return Fail(ms.ToString());
    std::printf("trained residual model (m=%zu, K=%zu%s), saved to %s\n",
                b.model->num_chunks(), b.model->num_centroids(),
                b.model->split_model() != nullptr ? ", split" : "", mpath);
  }
  auto s = b.ivf->Save(out);
  if (!s.ok()) return Fail(s.ToString());
  std::printf("saved to %s\n", out);
  return 0;
}

int CmdSearch(const Flags& flags) {
  // Only the IVF service takes an nprobe; on any other backend the sweep
  // would have nothing to vary.
  if (flags.Has("sweep-nprobe") &&
      std::strcmp(flags.Get("index", "memory"), "ivf") != 0) {
    return Fail("--sweep-nprobe sweeps IVF nprobe; it needs --index ivf");
  }
  if (flags.Has("sweep-csv") && !flags.Has("sweep-nprobe")) {
    return Fail("--sweep-csv writes the --sweep-nprobe curve; it needs "
                "--sweep-nprobe");
  }
  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  auto queries = LoadQueriesFor(flags, base.value());
  if (!queries.ok()) return Fail(queries.status().ToString());
  // Every index is built (or loaded) before the timed loop: the printed QPS
  // covers query work only.
  Backend backend;
  auto made = MakeBackend(flags, base.value(), &backend);
  if (!made.ok()) return Fail(made.ToString());
  const size_t k = backend.spec.k;
  const size_t nq = queries.value().size();
  auto gt = rpq::ComputeGroundTruth(base.value(), queries.value(), k);

  // --sweep-nprobe prints the IVF recall/QPS curve through the same service.
  if (const char* sweep = flags.Get("sweep-nprobe")) {
    auto nprobes = ParseSizeList("sweep-nprobe", sweep);
    if (nprobes.empty()) return Fail("--sweep-nprobe expects n1,n2,...");
    auto curve = rpq::eval::SweepBeamWidths(*backend.service, backend.spec,
                                            queries.value(), gt, nprobes);
    rpq::eval::PrintCurve("ivf", curve);
    if (const char* csv = flags.Get("sweep-csv")) {
      auto s = rpq::eval::WriteCurveCsv(csv, "nprobe", curve);
      if (!s.ok()) return Fail(s.ToString());
      std::printf("wrote sweep CSV to %s\n", csv);
    }
  }

  // --trace threads a per-query obs::QueryTrace through the service and
  // enables the registry, whose counters are diffed around the timed loop.
  const bool trace_on = flags.Has("trace");
  if (trace_on) rpq::obs::SetMetricsEnabled(true);
  std::vector<rpq::obs::QueryTrace> traces(trace_on ? nq : 0);
  const rpq::obs::Snapshot before =
      trace_on ? rpq::obs::TakeSnapshot() : rpq::obs::Snapshot{};

  // QPS is wall clock. The disk backend's simulated device time is never
  // added to it; it is reported on its own disk-io line.
  std::vector<rpq::serve::QueryResult> out(nq);
  rpq::Timer timer;
  for (size_t q = 0; q < nq; ++q) {
    rpq::serve::QuerySpec spec = backend.spec;
    spec.query = queries.value()[q];
    if (trace_on) spec.trace = &traces[q];
    out[q] = backend.service->Search(spec);
  }
  const double wall_seconds = timer.ElapsedSeconds();
  PrintDiskIo(backend, out);
  std::printf("queries: %zu  recall@%zu: %.4f  QPS: %.1f (wall clock)\n", nq,
              k, ReplayRecall(out, gt, k),
              nq / std::max(wall_seconds, 1e-12));
  if (trace_on) {
    PrintTrace(out, traces, backend.ivf != nullptr,
               rpq::obs::DiffSnapshots(before, rpq::obs::TakeSnapshot(),
                                       wall_seconds));
  }

  if (const char* dump = flags.Get("dump-top1")) {
    // One line per query: the top result's vertex id. Ids (not distances)
    // are the cross-backend invariant: the integer FastScan scan is
    // bit-identical everywhere, while the float lookup tables it quantizes
    // are only 1e-4-relative across SIMD backends, so distance BITS may
    // differ in the last ulps even when every ranking decision agrees.
    std::FILE* fp = std::fopen(dump, "w");
    if (fp == nullptr) return Fail(std::string("cannot write ") + dump);
    for (size_t q = 0; q < out.size(); ++q) {
      if (out[q].results.empty()) {
        std::fprintf(fp, "%zu -\n", q);
      } else {
        std::fprintf(fp, "%zu %u\n", q, out[q].results[0].id);
      }
    }
    std::fclose(fp);
    std::printf("wrote top-1 dump to %s\n", dump);
  }
  return 0;
}

int CmdServeBench(const Flags& flags) {
  rpq::serve::LoadgenOptions opt;
  opt.batch = flags.GetSize("batch", 0);  // open-loop leg only
  rpq::serve::EngineOptions eopt;
  eopt.shed_watermark = flags.GetSize("shed", 0);
  eopt.brownout_watermark = flags.GetSize("brownout", 0);
  // The engine admits a batch of B as B in-flight queries, so a watermark
  // below B would refuse or brown out part of every batch, idle or not.
  for (const auto& [name, mark] :
       {std::pair<const char*, size_t>{"shed", eopt.shed_watermark},
        {"brownout", eopt.brownout_watermark}}) {
    if (opt.batch > 1 && mark > 0 && mark < opt.batch) {
      const std::string b = std::to_string(opt.batch);
      return Fail(std::string("--") + name + " " + std::to_string(mark) +
                  " is below --batch " + b + ": a batch counts as " + b +
                  " in-flight queries, so part of every batch would pass "
                  "the watermark (use 0 or at least " + b + ")");
    }
  }

  auto base = LoadBase(flags);
  if (!base.ok()) return Fail(base.status().ToString());
  auto queries = LoadQueriesFor(flags, base.value());
  if (!queries.ok()) return Fail(queries.status().ToString());

  opt.threads = flags.GetSize("threads", 4);
  opt.total_queries = flags.GetSize("total", 0);
  const double rate = flags.GetDouble("rate", 0, Range::kNonNegative);
  // --metrics-json turns the registry on for the whole run (index build
  // included) and writes the snapshot at the end.
  const char* metrics_json = flags.Get("metrics-json");
  if (metrics_json != nullptr) rpq::obs::SetMetricsEnabled(true);

  // --stats-port / --slow-us arm the live-introspection layer: the flight
  // recorder admits degraded queries always and slow ones past --slow-us,
  // and --stats-port additionally serves /metrics, /metrics.json, /health,
  // and /slow over HTTP for the whole run (index build included). Both imply
  // metrics so the windowed /health summary has counters to diff.
  const bool stats_server = flags.Has("stats-port");
  if (stats_server || flags.Has("slow-us")) {
    rpq::obs::SetMetricsEnabled(true);
    rpq::obs::FlightRecorderOptions fopt;
    fopt.capacity = flags.GetSize("slow-capacity", 256);
    fopt.slow_us = flags.GetSize("slow-us", 0);
    rpq::obs::FlightRecorder& recorder = rpq::obs::GlobalFlightRecorder();
    recorder.Configure(fopt);
    recorder.SetEnabled(true);
  }
  rpq::obs::HttpExporter exporter([&flags] {
    rpq::obs::HttpExporterOptions hopt;
    hopt.port = static_cast<uint16_t>(flags.GetSize("stats-port", 0, 65535));
    hopt.window_seconds = flags.GetDouble("window-secs", 5, Range::kPositive);
    return hopt;
  }());
  if (stats_server) {
    auto started = exporter.Start();
    if (!started.ok()) return Fail(started.ToString());
    std::printf("stats endpoint: http://127.0.0.1:%u  "
                "(/metrics /metrics.json /health /slow)\n",
                exporter.port());
  }

  Backend backend;
  auto made = MakeBackend(flags, base.value(), &backend);
  if (!made.ok()) return Fail(made.ToString());
  const rpq::serve::SearchService& service = *backend.service;
  const size_t k = backend.spec.k;
  opt.spec = backend.spec;
  opt.spec.deadline_us = flags.GetSize("deadline-us", 0);

  // Recall sanity line (serial replay, k results against exact GT).
  auto gt = rpq::ComputeGroundTruth(base.value(), queries.value(), k);
  rpq::serve::ServingEngine serial(service, {1});
  auto outcomes = serial.SearchAll(queries.value(), backend.spec);
  std::printf("recall@%zu = %.4f (beam %zu, %zu shards)\n", k,
              ReplayRecall(outcomes, gt, k), backend.spec.beam_width,
              std::max<size_t>(backend.sharded.shards.size(), 1));
  PrintDiskIo(backend, outcomes);

  auto closed = rpq::serve::RunClosedLoop(service, queries.value(), opt);
  char label[64];
  std::snprintf(label, sizeof(label), "closed-loop x%zu", opt.threads);
  rpq::serve::PrintReport(label, closed);

  if (rate > 0) {
    eopt.threads = opt.threads;
    rpq::serve::ServingEngine engine(service, eopt);
    rpq::serve::LoadgenOptions oopt = opt;
    oopt.arrival_qps = rate;
    auto open = rpq::serve::RunOpenLoop(engine, queries.value(), oopt);
    std::snprintf(label, sizeof(label), "open-loop @%.0f/s%s", rate,
                  opt.batch > 1 ? " (batched)" : "");
    rpq::serve::PrintReport(label, open);
  }

  // Shard-wait distribution (fan-out start -> shard result available): the
  // histogram hedge_delay_us / shard_timeout_us should be tuned against.
  if (rpq::obs::MetricsEnabled() && backend.sharded.service != nullptr) {
    const rpq::obs::Snapshot snap = rpq::obs::TakeSnapshot();
    if (const rpq::obs::HistogramSnapshot* waits =
            snap.FindHistogram("serve.shard_wait_ns");
        waits != nullptr && waits->data.count > 0) {
      std::printf("shard-wait ms: p50 %7.3f  p95 %7.3f  p99 %7.3f  "
                  "max %7.3f  (%llu shard results)\n",
                  waits->data.Percentile(0.50) / 1e6,
                  waits->data.Percentile(0.95) / 1e6,
                  waits->data.Percentile(0.99) / 1e6,
                  static_cast<double>(waits->data.max) / 1e6,
                  static_cast<unsigned long long>(waits->data.count));
    }
  }
  {
    const rpq::obs::FlightRecorder& recorder = rpq::obs::GlobalFlightRecorder();
    if (recorder.enabled()) {
      std::printf("flight recorder: %llu observed, %llu admitted "
                  "(capacity %zu)\n",
                  static_cast<unsigned long long>(recorder.observed()),
                  static_cast<unsigned long long>(recorder.recorded()),
                  recorder.options().capacity);
    }
  }

  if (metrics_json != nullptr) {
    const std::string json = rpq::obs::DumpJson();
    std::FILE* fp = std::fopen(metrics_json, "w");
    if (fp == nullptr) {
      return Fail(std::string("cannot write ") + metrics_json);
    }
    std::fwrite(json.data(), 1, json.size(), fp);
    std::fputc('\n', fp);
    if (std::fclose(fp) != 0) {
      return Fail(std::string(metrics_json) + ": close failed");
    }
    std::printf("wrote metrics snapshot to %s\n", metrics_json);
  }
  // --slow-json: the end-of-run flight-recorder dump, for offline checks
  // (CI verifies every deadline_exceeded query of a seeded run landed here).
  if (const char* slow_json = flags.Get("slow-json")) {
    const std::string json = rpq::obs::GlobalFlightRecorder().DumpJson();
    std::FILE* fp = std::fopen(slow_json, "w");
    if (fp == nullptr) return Fail(std::string("cannot write ") + slow_json);
    std::fwrite(json.data(), 1, json.size(), fp);
    std::fputc('\n', fp);
    if (std::fclose(fp) != 0) {
      return Fail(std::string(slow_json) + ": close failed");
    }
    std::printf("wrote flight-recorder dump to %s\n", slow_json);
  }
  return 0;
}

// Validates a --metrics-json snapshot: parses it with the in-repo JSON
// reader, checks the stable schema (version, counters / histograms objects,
// the summary fields on every histogram), and fails if any --require'd
// metric name — counter or histogram — is absent. The CI smoke leg runs
// this against the serve-bench artifact so a schema regression or a metric
// that silently stopped being emitted fails the build, not a dashboard.
bool ReadFileToString(const char* path, std::string* out) {
  std::FILE* fp = std::fopen(path, "rb");
  if (fp == nullptr) return false;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), fp)) > 0) out->append(buf, n);
  std::fclose(fp);
  return true;
}

bool ParseJsonFile(const char* path, rpq::obs::JsonValue* root,
                   std::string* err) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    *err = std::string("cannot read ") + path;
    return false;
  }
  if (!rpq::obs::ParseJson(text, root, err)) {
    *err = std::string(path) + ": " + *err;
    return false;
  }
  return true;
}

int CmdMetricsValidate(const Flags& flags) {
  const char* path = flags.Get("json");
  if (path == nullptr) return Fail("--json is required");
  rpq::obs::JsonValue root;
  std::string err;
  if (!ParseJsonFile(path, &root, &err)) return Fail(err);
  if (!root.is_object()) return Fail("top-level value is not an object");
  const rpq::obs::JsonValue* version = root.Find("version");
  if (version == nullptr || !version->is_number()) {
    return Fail("missing numeric \"version\"");
  }
  const rpq::obs::JsonValue* counters = root.Find("counters");
  const rpq::obs::JsonValue* histograms = root.Find("histograms");
  if (counters == nullptr || !counters->is_object()) {
    return Fail("missing \"counters\" object");
  }
  if (histograms == nullptr || !histograms->is_object()) {
    return Fail("missing \"histograms\" object");
  }
  for (const auto& [name, h] : histograms->object) {
    for (const char* field :
         {"count", "sum", "max", "mean", "p50", "p95", "p99", "buckets"}) {
      if (h.Find(field) == nullptr) {
        return Fail("histogram \"" + name + "\" missing \"" + field + "\"");
      }
    }
    if (!h.Find("buckets")->is_array()) {
      return Fail("histogram \"" + name + "\": \"buckets\" is not an array");
    }
  }
  size_t missing = 0;
  for (const std::string& key : ParseStringList(flags.Get("require"))) {
    if (counters->Find(key) == nullptr && histograms->Find(key) == nullptr) {
      std::fprintf(stderr, "missing required metric: %s\n", key.c_str());
      ++missing;
    }
  }
  if (missing > 0) {
    return Fail(std::to_string(missing) + " required metric(s) missing");
  }
  std::printf("%s: valid metrics snapshot (%zu counters, %zu histograms)\n",
              path, counters->object.size(), histograms->object.size());

  // --diff <older.json>: reconstruct both snapshots (buckets included) and
  // print the windowed view between them — what moved, and at what rate over
  // --interval-secs — the offline twin of the live /health computation.
  if (const char* older_path = flags.Get("diff")) {
    rpq::obs::JsonValue older_root;
    if (!ParseJsonFile(older_path, &older_root, &err)) return Fail(err);
    rpq::obs::Snapshot older, newer;
    if (!rpq::obs::SnapshotFromJson(older_root, &older, &err)) {
      return Fail(std::string(older_path) + ": " + err);
    }
    if (!rpq::obs::SnapshotFromJson(root, &newer, &err)) {
      return Fail(std::string(path) + ": " + err);
    }
    const double interval =
        flags.GetDouble("interval-secs", 1, Range::kPositive);
    const rpq::obs::WindowedView view =
        rpq::obs::DiffSnapshots(older, newer, interval);
    std::printf("diff %s -> %s over %.3gs:\n", older_path, path, interval);
    for (const auto& c : view.counters) {
      if (c.delta == 0) continue;
      std::printf("  %-28s +%-10llu %10.1f/s\n", c.name.c_str(),
                  static_cast<unsigned long long>(c.delta), c.rate);
    }
    for (const auto& h : view.histograms) {
      if (h.interval.count == 0) continue;
      std::printf("  %-28s %8llu samples  p50 %11.0f  p95 %11.0f  "
                  "p99 %11.0f\n",
                  h.name.c_str(),
                  static_cast<unsigned long long>(h.interval.count),
                  h.interval.Percentile(0.50), h.interval.Percentile(0.95),
                  h.interval.Percentile(0.99));
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// bench-diff: the per-PR regression gate. Compares two bench summary JSONs
// (BENCH_serve.json, BENCH_ivf.json) leaf by leaf and exits non-zero when a
// gated metric moved past tolerance. Direction is inferred from the metric
// name: recall/QPS/throughput must not DROP more than --max-recall-regress
// percent; latency/percentile/cost keys must not RISE more than
// --max-regress percent; any other numeric leaf is informational. Gated
// metrics present in the baseline but missing from the candidate also fail
// (a silently vanished metric must not read as "no regression").

enum class BenchDirection { kHigherBetter, kLowerBetter, kInfo };

BenchDirection ClassifyBenchKey(const std::string& key) {
  std::string k;
  k.reserve(key.size());
  for (char c : key) k += static_cast<char>(std::tolower(c));
  auto has = [&k](const char* s) { return k.find(s) != std::string::npos; };
  if (has("recall") || has("qps") || has("items_per_second") ||
      has("throughput")) {
    return BenchDirection::kHigherBetter;
  }
  if (has("p50") || has("p95") || has("p99") || has("latency") ||
      has("us_per") || has("ms_per") || has("ns_per") || has("mean_ms") ||
      has("wall") || has("cost") || has("seconds")) {
    return BenchDirection::kLowerBetter;
  }
  return BenchDirection::kInfo;
}

struct BenchDiffReport {
  double max_regress = 10.0;         // % tolerance for lower-better keys
  double max_recall_regress = 10.0;  // % tolerance for higher-better keys
  size_t compared = 0;
  size_t gated = 0;
  std::vector<std::string> failures;

  void CompareLeaf(const std::string& path, const std::string& key,
                   double old_v, double new_v) {
    ++compared;
    const BenchDirection dir = ClassifyBenchKey(key);
    if (dir == BenchDirection::kInfo) return;
    ++gated;
    if (old_v <= 0) return;  // no meaningful relative change from zero
    char line[256];
    if (dir == BenchDirection::kLowerBetter) {
      const double pct = (new_v - old_v) / old_v * 100.0;
      if (pct > max_regress) {
        std::snprintf(line, sizeof(line),
                      "%s: %.6g -> %.6g (+%.1f%%, tolerance +%.1f%%)",
                      path.c_str(), old_v, new_v, pct, max_regress);
        failures.emplace_back(line);
      }
    } else {
      const double pct = (old_v - new_v) / old_v * 100.0;
      if (pct > max_recall_regress) {
        std::snprintf(line, sizeof(line),
                      "%s: %.6g -> %.6g (-%.1f%%, tolerance -%.1f%%)",
                      path.c_str(), old_v, new_v, pct, max_recall_regress);
        failures.emplace_back(line);
      }
    }
  }

  void Missing(const std::string& path) {
    failures.push_back(path + ": gated metric missing from candidate");
  }
};

// The sweep-table convention (BENCH_ivf.json): an object holding
// "columns": ["nprobe", "recall@10", ...] plus sibling arrays of rows,
// each row one array of numbers. Rows are matched between baseline and
// candidate by their first cell (the sweep axis), and each remaining cell
// is gated under its column name.
void DiffBenchTable(const std::string& path,
                    const std::vector<rpq::obs::JsonValue>& columns,
                    const rpq::obs::JsonValue& old_rows,
                    const rpq::obs::JsonValue& new_rows,
                    BenchDiffReport* report) {
  auto row_ok = [](const rpq::obs::JsonValue& r) {
    return r.is_array() && !r.array.empty() && r.array[0].is_number();
  };
  for (const rpq::obs::JsonValue& old_row : old_rows.array) {
    if (!row_ok(old_row)) continue;
    const double axis = old_row.array[0].number;
    const rpq::obs::JsonValue* new_row = nullptr;
    for (const rpq::obs::JsonValue& candidate : new_rows.array) {
      if (row_ok(candidate) && candidate.array[0].number == axis) {
        new_row = &candidate;
        break;
      }
    }
    char axis_buf[48];
    std::snprintf(axis_buf, sizeof(axis_buf), "%.6g", axis);
    const std::string row_path = path + "[" + axis_buf + "]";
    if (new_row == nullptr) {
      report->Missing(row_path);
      continue;
    }
    const size_t cells =
        std::min(old_row.array.size(), new_row->array.size());
    for (size_t j = 1; j < cells; ++j) {
      if (!old_row.array[j].is_number() || !new_row->array[j].is_number()) {
        continue;
      }
      const std::string col =
          j < columns.size() &&
                  columns[j].type == rpq::obs::JsonValue::Type::kString
              ? columns[j].string
              : "col" + std::to_string(j);
      report->CompareLeaf(row_path + "." + col, col, old_row.array[j].number,
                          new_row->array[j].number);
    }
  }
}

void DiffBenchValues(const std::string& path, const std::string& key,
                     const rpq::obs::JsonValue& old_v,
                     const rpq::obs::JsonValue& new_v,
                     BenchDiffReport* report) {
  if (old_v.is_number() && new_v.is_number()) {
    report->CompareLeaf(path, key, old_v.number, new_v.number);
    return;
  }
  if (old_v.is_object() && new_v.is_object()) {
    const rpq::obs::JsonValue* old_cols = old_v.Find("columns");
    const bool is_table = old_cols != nullptr && old_cols->is_array();
    for (const auto& [name, old_child] : old_v.object) {
      const std::string child_path =
          path.empty() ? name : path + "." + name;
      const rpq::obs::JsonValue* new_child = new_v.Find(name);
      if (new_child == nullptr) {
        // A vanished subtree fails only if it held gated leaves; probe it
        // against itself to find out without duplicating the walk.
        BenchDiffReport probe;
        DiffBenchValues(child_path, name, old_child, old_child, &probe);
        if (probe.gated > 0) report->Missing(child_path);
        continue;
      }
      if (is_table && name != "columns" && old_child.is_array() &&
          new_child->is_array()) {
        DiffBenchTable(child_path, old_cols->array, old_child, *new_child,
                       report);
      } else {
        DiffBenchValues(child_path, name, old_child, *new_child, report);
      }
    }
    return;
  }
  if (old_v.is_array() && new_v.is_array()) {
    const size_t n = std::min(old_v.array.size(), new_v.array.size());
    for (size_t i = 0; i < n; ++i) {
      DiffBenchValues(path + "[" + std::to_string(i) + "]", key,
                      old_v.array[i], new_v.array[i], report);
    }
  }
  // Strings, bools, and type mismatches (dates, descriptions) are not gated.
}

int CmdBenchDiff(const std::vector<std::string>& positional,
                 const Flags& flags) {
  if (positional.size() != 2) {
    return Fail("usage: rpq_tool bench-diff <baseline.json> <candidate.json> "
                "[--max-regress pct] [--max-recall-regress pct]");
  }
  rpq::obs::JsonValue old_root, new_root;
  std::string err;
  if (!ParseJsonFile(positional[0].c_str(), &old_root, &err)) return Fail(err);
  if (!ParseJsonFile(positional[1].c_str(), &new_root, &err)) return Fail(err);

  BenchDiffReport report;
  report.max_regress = flags.GetDouble("max-regress", 10, Range::kNonNegative);
  report.max_recall_regress = flags.GetDouble(
      "max-recall-regress", report.max_regress, Range::kNonNegative);
  DiffBenchValues("", "", old_root, new_root, &report);

  std::printf("bench-diff %s -> %s: %zu numeric leaves compared, %zu gated "
              "(tolerance +%.1f%% / recall -%.1f%%)\n",
              positional[0].c_str(), positional[1].c_str(), report.compared,
              report.gated, report.max_regress, report.max_recall_regress);
  if (report.failures.empty()) {
    std::printf("no regressions past tolerance\n");
    return 0;
  }
  for (const std::string& f : report.failures) {
    std::fprintf(stderr, "REGRESSION %s\n", f.c_str());
  }
  return Fail(std::to_string(report.failures.size()) +
              " regression(s) past tolerance");
}

int Usage() {
  std::fprintf(stderr,
               "usage: rpq_tool <gen|stats|build-graph|train|encode|build-ivf|"
               "search|serve-bench|bench-diff|metrics-validate> [--flags]\n"
               "see the header of tools/rpq_tool.cc for the full pipeline\n");
  return 2;
}

}  // namespace

// A FlagError thrown while a command reads its flags is reported like the
// flag errors commands return themselves.
int main(int argc, char** argv) try {
  if (argc < 2) return Usage();
  std::string cmd = argv[1];
  Flags flags = ParseFlags(argc, argv, 2);
  if (cmd == "gen") return CmdGen(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "build-graph") return CmdBuildGraph(flags);
  if (cmd == "train") return CmdTrain(flags);
  if (cmd == "encode") return CmdEncode(flags);
  if (cmd == "build-ivf") return CmdBuildIvf(flags);
  if (cmd == "search") return CmdSearch(flags);
  if (cmd == "serve-bench") return CmdServeBench(flags);
  if (cmd == "bench-diff") {
    // bench-diff takes its two files positionally; skip over flag values so
    // "--max-regress 10" does not read as a file.
    std::vector<std::string> positional;
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--", 2) == 0) {
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) ++i;
        continue;
      }
      positional.emplace_back(argv[i]);
    }
    return CmdBenchDiff(positional, flags);
  }
  if (cmd == "metrics-validate") return CmdMetricsValidate(flags);
  return Usage();
} catch (const FlagError& e) {
  return Fail(e.what());
}
