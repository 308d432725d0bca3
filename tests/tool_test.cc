// End-to-end tests of the rpq_tool command line. The binary runs as a
// subprocess over a small generated fixture. The tests pin the rules the
// backend factory owns (flag conflicts are errors, search and serve-bench
// serve the same deployment for the same flags, IVF probes the index's saved
// nprobe by default) and train's single K rule.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

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

}  // namespace
