// End-to-end tests of the rpq_tool command line. The binary runs as a
// subprocess over a small generated fixture. The tests pin the rules the
// backend factory owns (flag conflicts are errors, search and serve-bench
// serve the same deployment for the same flags, IVF probes the index's saved
// nprobe by default), the --sweep-nprobe curve (IVF only), train's single K
// rule, the size and dimension rules between a base and its graph, queries
// and model, fvecs records of one dimension, strict numeric flags (sizes,
// size lists, rates, decimals and the stats port), and serve-bench's
// admission watermarks against its batch size.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

struct ToolRun {
  int status = -1;  ///< exit status; -1 when the tool did not exit normally
  std::string out, err;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

class ToolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    std::string tmpl = ::testing::TempDir() + "/rpq_tool_test.XXXXXX";
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    for (const std::string& args :
         {"gen --n 2000 --queries 20 --out " + dir_,
          "build-graph --base " + Path("base.fvecs") + " --type vamana --out " +
              Path("g.bin"),
          "train --base " + Path("base.fvecs") +
              " --method pq --m 16 --nbits 4 --out " + Path("model.rpqq")}) {
      ASSERT_EQ(Tool(args).status, 0) << args;
    }
  }

  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  static std::string Path(const std::string& name) { return dir_ + "/" + name; }

  static ToolRun Tool(const std::string& args) {
    const std::string out = Path("stdout.txt"), err = Path("stderr.txt");
    const std::string cmd = std::string("'") + RPQ_TOOL_PATH + "' " + args +
                            " > " + out + " 2> " + err;
    const int raw = std::system(cmd.c_str());
    ToolRun r;
    if (raw != -1 && WIFEXITED(raw)) r.status = WEXITSTATUS(raw);
    r.out = ReadFile(out);
    r.err = ReadFile(err);
    return r;
  }

  // The fixture's base and query files, as flags.
  static std::string Data() {
    return " --base " + Path("base.fvecs") + " --queries " +
           Path("queries.fvecs");
  }

  // The recall@10 figure of a search ("recall@10: x") or serve-bench
  // ("recall@10 = x") report; empty when absent.
  static std::string Recall(const std::string& out) {
    std::smatch m;
    static const std::regex re("recall@10 ?[:=] +([0-9.]+)");
    return std::regex_search(out, m, re) ? m[1].str() : "";
  }

  // Generates a 960-d gist base (300 rows, 5 queries) in `dir` and trains a
  // 4-bit m = 16 model on it, `dir`/gist.rpqq.
  static bool MakeGist(const std::string& dir) {
    std::filesystem::create_directory(dir);
    return Tool("gen --name gist --n 300 --queries 5 --out " + dir).status ==
               0 &&
           Tool("train --base " + dir +
                "/base.fvecs --method pq --nbits 4 --m 16 --out " + dir +
                "/gist.rpqq")
                   .status == 0;
  }

  static std::string dir_;
};

std::string ToolTest::dir_;

TEST_F(ToolTest, BackendFlagConflictsAreFlagErrors) {
  const std::string backend =
      Data() + " --graph " + Path("g.bin") + " --model " + Path("model.rpqq");
  const std::string serve = " --threads 1 --total 20";
  for (const std::string& args :
       {"serve-bench" + backend + " --index foo" + serve,
        "search" + backend + " --index ivf --hybrid",
        "serve-bench" + backend + " --index ivf --hybrid" + serve,
        "serve-bench" + backend + " --index ivf --shards 4" + serve}) {
    const ToolRun r = Tool(args);
    EXPECT_EQ(r.status, 1) << args << "\n" << r.out << r.err;
    EXPECT_NE(r.err.find("error: "), std::string::npos) << args;
  }
}

TEST_F(ToolTest, SearchAndServeBenchServeTheSameBackend) {
  const std::string graph = " --graph " + Path("g.bin");
  const std::string model = " --model " + Path("model.rpqq");
  for (const std::string& backend :
       {graph + model + " --mode fastscan --beam 16",
        graph + model + " --mode sdc --beam 16",
        graph + model +
            " --mode fastscan --beam 32 --rerank 24 --rerank-mode exact",
        graph + model +
            " --index disk --queue-depth 8 --io-width 8 --readahead 4"
            " --beam 16",
        model + " --index ivf --nlist 32 --nprobe 2"}) {
    const ToolRun search = Tool("search" + Data() + backend);
    const ToolRun serve =
        Tool("serve-bench" + Data() + backend + " --threads 1 --total 20");
    ASSERT_EQ(search.status, 0) << backend << "\n" << search.err;
    ASSERT_EQ(serve.status, 0) << backend << "\n" << serve.err;
    const std::string recall = Recall(search.out);
    ASSERT_FALSE(recall.empty()) << search.out;
    // Below 1, so that agreement says something about the answers.
    EXPECT_LT(std::stod(recall), 1.0) << backend;
    EXPECT_EQ(Recall(serve.out), recall) << backend << "\n" << serve.out;
  }
}

TEST_F(ToolTest, IvfProbesTheSavedDefaultNprobe) {
  const std::string model = " --model " + Path("model.rpqq");
  ASSERT_EQ(Tool("build-ivf --base " + Path("base.fvecs") + model +
                 " --nlist 16 --nprobe 2 --out " + Path("ivf2.bin"))
                .status,
            0);
  const std::string backend = model + " --index ivf --ivf " + Path("ivf2.bin");
  const ToolRun search = Tool("search" + Data() + backend + " --trace");
  ASSERT_EQ(search.status, 0) << search.err;
  EXPECT_NE(search.out.find("ivf.cells_probed 2.0/q"), std::string::npos)
      << search.out;
  const ToolRun serve =
      Tool("serve-bench" + Data() + backend + " --threads 1 --total 20");
  ASSERT_EQ(serve.status, 0) << serve.err;
  EXPECT_NE(serve.out.find("(beam 2, 1 shards)"), std::string::npos)
      << serve.out;
}

// --sweep-nprobe replays the IVF service once per listed nprobe. Its CSV has
// a header and one row per nprobe, and each row's recall is the one a plain
// search at that nprobe prints.
TEST_F(ToolTest, SweepNprobeRowsMatchSearchAtEachNprobe) {
  const std::string backend =
      Data() + " --model " + Path("model.rpqq") + " --index ivf --nlist 32";
  const std::string csv = Path("sweep.csv");
  const ToolRun sweep =
      Tool("search" + backend + " --sweep-nprobe 1,2 --sweep-csv " + csv);
  ASSERT_EQ(sweep.status, 0) << sweep.err;
  const ToolRun search = Tool("search" + backend + " --nprobe 2");
  ASSERT_EQ(search.status, 0) << search.err;

  std::istringstream in(ReadFile(csv));
  std::vector<std::string> rows;
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  ASSERT_EQ(rows.size(), 3u) << ReadFile(csv);
  EXPECT_EQ(rows[0], "nprobe,recall@10,us_per_query");
  EXPECT_EQ(rows[1].rfind("1,", 0), 0u) << rows[1];
  ASSERT_EQ(rows[2].rfind("2,", 0), 0u) << rows[2];
  const std::string recall = rows[2].substr(2, rows[2].find(',', 2) - 2);
  EXPECT_EQ(recall, Recall(search.out)) << search.out;
}

// Only the IVF service takes an nprobe: a sweep over any other backend, or a
// sweep CSV without a sweep, is a flag error, not a search that prints no
// curve and writes no CSV.
TEST_F(ToolTest, SweepFlagsOutsideAnIvfSweepAreFlagErrors) {
  const std::string csv = Path("mem_sweep.csv");
  const std::string model = " --model " + Path("model.rpqq");
  for (const std::string& index : {"", " --index memory", " --index disk"}) {
    const ToolRun r = Tool("search" + Data() + " --graph " + Path("g.bin") +
                           model + index + " --sweep-nprobe 1,2 --sweep-csv " +
                           csv);
    EXPECT_EQ(r.status, 1) << index << "\n" << r.out << r.err;
    EXPECT_NE(r.err.find("--index ivf"), std::string::npos) << r.err;
  }
  const ToolRun r = Tool("search" + Data() + model +
                         " --index ivf --nlist 32 --sweep-csv " + csv);
  EXPECT_EQ(r.status, 1) << r.out << r.err;
  EXPECT_NE(r.err.find("needs --sweep-nprobe"), std::string::npos) << r.err;
  EXPECT_FALSE(std::filesystem::exists(csv));
}

TEST_F(ToolTest, TrainRejectsKAboveWhatTheCodesHold) {
  const std::string base = " --base " + Path("base.fvecs");
  for (const char* method : {"pq", "opq", "rpq"}) {
    const std::string out = Path(std::string("k512_") + method + ".rpqq");
    const ToolRun r = Tool("train" + base + " --graph " + Path("g.bin") +
                           " --method " + method + " --k 512 --out " + out);
    EXPECT_EQ(r.status, 1) << method << "\n" << r.out << r.err;
    EXPECT_NE(r.err.find("K <= 256"), std::string::npos) << r.err;
    EXPECT_FALSE(std::filesystem::exists(out)) << method;
  }
  const ToolRun r = Tool("train" + base +
                         " --method pq --nbits 4 --k 32 --out " +
                         Path("k32.rpqq"));
  EXPECT_EQ(r.status, 1) << r.out << r.err;
  EXPECT_NE(r.err.find("K <= 16"), std::string::npos) << r.err;
}

// One FastScan capability rule (quant::FastScanCapable): u8 tables hold at
// most 256 rows, m for 4-bit codes and 2m for K = 256 split codes. 960-d
// rows make the m values below valid PQ shapes. Past the cap, split
// training and IVF builds are flag errors, while a 4-bit model still serves
// float ADC (it only gets no FastScan layout).
TEST_F(ToolTest, FastScanRowCapIsOneRule) {
  const std::string gist = Path("gist");
  std::filesystem::create_directory(gist);
  const std::string base = " --base " + gist + "/base.fvecs";
  const std::string m480 = gist + "/m480.rpqq";
  for (const std::string& args :
       {"gen --name gist --n 300 --queries 5 --out " + gist,
        "build-graph" + base + " --type vamana --out " + gist + "/g.bin",
        "train" + base + " --method pq --nbits 4 --m 480 --out " + m480}) {
    ASSERT_EQ(Tool(args).status, 0) << args;
  }
  // The residual flow trains its model, so --model is an output there.
  for (const std::string& args :
       {"build-ivf" + base + " --residual --nbits 8 --m 160 --model " + gist +
            "/res.rpqq --out " + gist + "/ivf_res.bin",
        "train" + base + " --method pq --split --m 160 --out " + gist +
            "/split160.rpqq"}) {
    const ToolRun r = Tool(args);
    EXPECT_EQ(r.status, 1) << args << "\n" << r.out << r.err;
    EXPECT_NE(r.err.find("--m must be <= 128"), std::string::npos) << r.err;
  }
  const ToolRun ivf = Tool("build-ivf" + base + " --model " + m480 +
                           " --out " + gist + "/ivf.bin");
  EXPECT_EQ(ivf.status, 1) << ivf.out << ivf.err;
  EXPECT_NE(ivf.err.find("FastScan-capable"), std::string::npos) << ivf.err;
  const ToolRun search =
      Tool("search" + base + " --queries " + gist + "/queries.fvecs --graph " +
           gist + "/g.bin --model " + m480 + " --mode adc");
  EXPECT_EQ(search.status, 0) << search.out << search.err;
  EXPECT_FALSE(Recall(search.out).empty()) << search.out;
}

// A graph's vertex v is base row v, so a --graph built over another base is
// a flag error wherever one is loaded. Unchecked, float ADC would score codes
// past the end of the smaller base's, and the FastScan layout, the disk index
// and RPQ training would abort.
TEST_F(ToolTest, GraphFromAnotherBaseIsAFlagError) {
  const std::string small = Path("small");
  std::filesystem::create_directory(small);
  const std::string base = " --base " + small + "/base.fvecs";
  const std::string pq8 = small + "/pq8.rpqq";
  for (const std::string& args :
       {"gen --n 1500 --queries 5 --out " + small,
        "train" + base + " --method pq --m 16 --out " + pq8}) {
    ASSERT_EQ(Tool(args).status, 0) << args;
  }
  const std::string search = "search" + base + " --queries " + small +
                             "/queries.fvecs --graph " + Path("g.bin");
  for (const std::string& args :
       {search + " --model " + pq8 + " --mode adc",
        search + " --model " + Path("model.rpqq"),
        search + " --model " + Path("model.rpqq") + " --index disk",
        "train" + base + " --graph " + Path("g.bin") +
            " --method rpq --m 16 --out " + small + "/rpq.rpqq"}) {
    const ToolRun r = Tool(args);
    EXPECT_EQ(r.status, 1) << args << "\n" << r.out << r.err;
    EXPECT_NE(r.err.find("--graph has 2000 vertices but --base has 1500 rows"),
              std::string::npos)
        << args << "\n" << r.err;
  }
}

// Queries are scored against base rows, so --queries of another dimension
// is a flag error naming both. Unchecked, the 128-d sift queries were read
// as 960-d rows (past the end of the query buffer) and recall was printed.
TEST_F(ToolTest, QueriesOfAnotherDimensionAreAFlagError) {
  const std::string gist = Path("gist_queries");
  ASSERT_TRUE(MakeGist(gist));
  const std::string backend = " --base " + gist + "/base.fvecs --queries " +
                              Path("queries.fvecs") + " --model " + gist +
                              "/gist.rpqq --index ivf --nlist 8";
  for (const std::string& args :
       {"search" + backend, "serve-bench" + backend + " --threads 1"}) {
    const ToolRun r = Tool(args);
    EXPECT_EQ(r.status, 1) << args << "\n" << r.out << r.err;
    EXPECT_NE(r.err.find("--queries has dimension 128 but --base has "
                         "dimension 960"),
              std::string::npos)
        << args << "\n" << r.err;
  }
}

// A model encodes rows of its own dimension, so a --model of another
// dimension than --base is a flag error wherever one is loaded. Unchecked,
// the 960-d model encoded 128-d rows by reading past the base.
TEST_F(ToolTest, ModelOfAnotherDimensionIsAFlagError) {
  const std::string gist = Path("gist_model");
  ASSERT_TRUE(MakeGist(gist));
  const std::string model = " --model " + gist + "/gist.rpqq";
  for (const std::string& args :
       {"search" + Data() + " --graph " + Path("g.bin") + model + " --mode adc",
        "search" + Data() + model + " --index ivf --nlist 8",
        "encode --base " + Path("base.fvecs") + model + " --out " +
            Path("gist_codes.bin")}) {
    const ToolRun r = Tool(args);
    EXPECT_EQ(r.status, 1) << args << "\n" << r.out << r.err;
    EXPECT_NE(r.err.find("--model has dimension 960 but --base has "
                         "dimension 128"),
              std::string::npos)
        << args << "\n" << r.err;
  }
  EXPECT_FALSE(std::filesystem::exists(Path("gist_codes.bin")));
}

// An fvecs file whose records change dimension is a read error, not an
// abort in Dataset::Append.
TEST_F(ToolTest, MixedDimensionFvecsIsAnError) {
  const std::string path = Path("mixed.fvecs");
  {
    std::ofstream out(path, std::ios::binary);
    for (const int32_t dim : {4, 8}) {
      out.write(reinterpret_cast<const char*>(&dim), sizeof(dim));
      const std::vector<float> row(dim, 1.0f);
      out.write(reinterpret_cast<const char*>(row.data()),
                sizeof(float) * row.size());
    }
  }
  const ToolRun r = Tool("train --base " + path + " --method pq --m 2 --out " +
                         Path("mixed.rpqq"));
  EXPECT_EQ(r.status, 1) << r.out << r.err;
  EXPECT_NE(r.err.find("has dimension 8, the first has 4"), std::string::npos)
      << r.err;
}

// Vamana and NSG fill each vertex's list from more rows than --degree and
// than NSG's kNN list length (48); a smaller base is a flag error naming the
// bound, not an abort. HNSW has no such bound.
TEST_F(ToolTest, BuildGraphRejectsABaseNoLargerThanItsBound) {
  const std::string tiny = Path("tiny");
  std::filesystem::create_directory(tiny);
  ASSERT_EQ(Tool("gen --n 20 --queries 5 --out " + tiny).status, 0);
  const std::string build =
      "build-graph --base " + tiny + "/base.fvecs --out " + tiny + "/g.bin";
  for (const auto& [type, bound] :
       {std::pair<std::string, std::string>{"vamana", "--degree (32)"},
        {"nsg", "kNN list length (48)"}}) {
    const ToolRun r = Tool(build + " --type " + type);
    EXPECT_EQ(r.status, 1) << type << "\n" << r.out << r.err;
    EXPECT_NE(r.err.find(bound), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("--base has 20"), std::string::npos) << r.err;
  }
  EXPECT_EQ(Tool(build + " --type hnsw").status, 0);
}

// A size flag takes a non-negative decimal integer (each item of a size
// list too, and a port at most 65535), a disk fault rate a value in [0, 1],
// and every other decimal flag a finite number in its flag's range.
// Anything else is a flag error naming the flag, not a wrapped size (-1
// reads as 2^64 - 1, so a sweep row at beam 2^64 - 1), a silent 0 (a rate
// that skips the open loop, a gate at 0% tolerance), a wrapped port or a
// run in which every read fails.
TEST_F(ToolTest, NumericFlagsAreParsedStrictly) {
  const std::string disk = "search" + Data() + " --graph " + Path("g.bin") +
                           " --model " + Path("model.rpqq") + " --index disk";
  const std::string ivf =
      Data() + " --model " + Path("model.rpqq") + " --index ivf --nlist 16";
  const std::string serve = "serve-bench" + ivf + " --threads 1 --total 20";
  const std::string json = Path("bench.json");
  std::ofstream(json) << "{\"qps\": 100.0}\n";
  const std::string diff = "bench-diff " + json + " " + json;
  struct Case {
    std::string command, flag, value;
  };
  for (const Case& c : {
           Case{disk, "--io-width", "-1"},
           Case{disk, "--io-width", "abc"},
           Case{disk, "--disk-error-rate", "2"},
           Case{disk, "--disk-spike-rate", "nan"},
           Case{"search" + ivf, "--sweep-nprobe", "1,-1"},
           Case{serve, "--rate", "abc"},
           Case{serve, "--rate", "-1"},
           Case{serve, "--window-secs", "0"},
           Case{serve, "--stats-port", "70000"},
           Case{diff, "--max-regress", "abc"},
           Case{diff, "--max-recall-regress", "nan"},
       }) {
    const ToolRun r = Tool(c.command + " " + c.flag + " " + c.value);
    EXPECT_EQ(r.status, 1) << c.flag << " " << c.value << "\n"
                           << r.out << r.err;
    EXPECT_NE(r.err.find("error: " + c.flag + " expects"), std::string::npos)
        << r.err;
    // A list names the offending item.
    const std::string item = c.value.substr(c.value.rfind(',') + 1);
    EXPECT_NE(r.err.find("\"" + item + "\""), std::string::npos) << r.err;
  }
  const ToolRun ok = Tool(diff + " --max-regress 0 --max-recall-regress 2.5");
  EXPECT_EQ(ok.status, 0) << ok.out << ok.err;
  EXPECT_NE(ok.out.find("tolerance +0.0% / recall -2.5%"), std::string::npos)
      << ok.out;
}

// The engine counts a batch of B as B in-flight queries, so a nonzero shed
// or brownout watermark below B would refuse or brown out part of every
// batch on an idle engine; one at B admits a whole batch.
TEST_F(ToolTest, WatermarkBelowTheBatchIsAFlagError) {
  const std::string serve = "serve-bench" + Data() + " --graph " +
                            Path("g.bin") + " --model " + Path("model.rpqq") +
                            " --threads 1 --total 20 --rate 2000 --batch 4";
  for (const char* mark : {"--shed", "--brownout"}) {
    const ToolRun r = Tool(serve + " " + mark + " 1");
    EXPECT_EQ(r.status, 1) << mark << "\n" << r.out << r.err;
    EXPECT_NE(r.err.find(std::string(mark) + " 1 is below --batch 4"),
              std::string::npos)
        << r.err;
  }
  const ToolRun r = Tool(serve + " --shed 4 --brownout 4");
  EXPECT_EQ(r.status, 0) << r.out << r.err;
}

}  // namespace
