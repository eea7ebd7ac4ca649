/**
 * @file
 * occamy-serve end to end: one scripted session through the built
 * daemon (its path comes in as OCCAMY_SERVE_BIN), covering the warm
 * pool, the stepped checkpoint/restore session, and the structured
 * errors a client is expected to handle.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

namespace
{

namespace fs = std::filesystem;

/** Raw value of @p key in one flat JSON reply ("" when absent); string
 *  values come back unquoted, escapes left as they are. */
std::string
field(const std::string &line, const std::string &key)
{
    const std::string tag = "\"" + key + "\":";
    const std::size_t at = line.find(tag);
    if (at == std::string::npos)
        return "";
    std::size_t i = at + tag.size();
    if (line[i] != '"') {
        const std::size_t end = line.find_first_of(",}", i);
        return line.substr(i, end - i);
    }
    std::string out;
    for (++i; i < line.size() && line[i] != '"'; ++i) {
        if (line[i] == '\\')
            out += line[i++];
        out += line[i];
    }
    return out;
}

class Serve : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("occamy_test_serve_" + std::to_string(::getpid()));
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    /** Feed @p requests (one per line) to a fresh daemon; @return its
     *  reply lines grouped by request id (no id: key ""). */
    std::map<std::string, std::vector<std::string>>
    session(const std::vector<std::string> &requests, int *status)
    {
        const fs::path in = dir_ / "in.ndjson", out = dir_ / "out.ndjson";
        {
            std::ofstream os(in);
            for (const std::string &r : requests)
                os << r << "\n";
        }
        const std::string cmd = std::string(OCCAMY_SERVE_BIN) +
                                " --max-line-bytes 4096 < " +
                                in.string() + " > " + out.string();
        *status = std::system(cmd.c_str());
        std::map<std::string, std::vector<std::string>> replies;
        std::ifstream is(out);
        for (std::string line; std::getline(is, line);)
            replies[field(line, "id")].push_back(line);
        return replies;
    }

    fs::path dir_;
};

TEST_F(Serve, ScriptedSession)
{
    const std::string spec =
        R"("policy":"occamy","pair":"6+16","max_cycles":"400000")";
    const std::string ckpt = (dir_ / "s.ckpt").string();
    int status = -1;
    auto r = session(
        {
            R"({"cmd":"hello","id":"hello"})",
            R"({"cmd":"pool","id":"pool","count":"1",)" + spec + "}",
            R"({"cmd":"run","id":"hit",)" + spec + "}",
            R"({"cmd":"run","id":"miss","policy":"private","pair":"6+16"})",
            R"({"cmd":"load","id":"load",)" + spec + "}",
            R"({"cmd":"step","id":"step","cycles":"50000"})",
            R"({"cmd":"inspect","id":"inspect","path":"system"})",
            R"({"cmd":"paths","id":"paths"})",
            R"({"cmd":"checkpoint","id":"ckpt","file":")" + ckpt + "\"}",
            R"({"cmd":"step","id":"step2","cycles":"20000"})",
            R"({"cmd":"restore","id":"restore","file":")" + ckpt +
                "\"," + spec + "}",
            R"({"cmd":"finalize","id":"fin"})",
            R"({"cmd":"shutdown","id":"bye"})",
        },
        &status);
    EXPECT_EQ(status, 0);

    ASSERT_EQ(r["hello"].size(), 1u);
    EXPECT_EQ(field(r["hello"][0], "event"), "hello");
    EXPECT_EQ(field(r["pool"].back(), "pool_size"), "1");

    // A pooled instance serves the matching run: no boot on the
    // request path. The unpooled policy boots inline.
    const std::string hit = r["hit"].back();
    EXPECT_EQ(field(hit, "event"), "done");
    EXPECT_EQ(field(hit, "pool_hit"), "true");
    EXPECT_EQ(field(hit, "boot_events_on_request_path"), "0");
    const std::string miss = r["miss"].back();
    EXPECT_EQ(field(miss, "pool_hit"), "false");
    EXPECT_EQ(field(miss, "boot_events_on_request_path"), "1");

    EXPECT_EQ(field(r["load"].back(), "cycle"), "0");
    EXPECT_EQ(field(r["step"].back(), "cycle"), "50000");
    EXPECT_EQ(field(r["step"].back(), "finished"), "false");
    EXPECT_NE(field(r["inspect"].back(), "state").find("cycle 50000"),
              std::string::npos);
    EXPECT_NE(field(r["paths"].back(), "paths").find("system.mem"),
              std::string::npos);
    EXPECT_EQ(field(r["ckpt"].back(), "event"), "checkpointed");
    EXPECT_GT(std::stoull(field(r["ckpt"].back(), "bytes")), 0u);
    EXPECT_EQ(field(r["step2"].back(), "cycle"), "70000");

    // Restored at the checkpoint, the session finishes exactly like
    // the uninterrupted pooled run.
    EXPECT_EQ(field(r["restore"].back(), "cycle"), "50000");
    const std::string fin = r["fin"].back();
    EXPECT_EQ(field(fin, "event"), "finalized");
    EXPECT_EQ(field(fin, "cycles"), field(hit, "cycles"));
    EXPECT_EQ(field(fin, "simd_util"), field(hit, "simd_util"));
    EXPECT_EQ(field(r["bye"].back(), "event"), "bye");
}

TEST_F(Serve, WrappedTraceStillCountsItsBoot)
{
    // The pipeline trace of 20+9 fills the default 2^20-event ring and
    // wraps it, overwriting the inline boot's SystemBoot event.
    int status = -1;
    auto r = session(
        {
            R"({"cmd":"run","id":"wrap","policy":"occamy","pair":"20+9",)"
            R"("trace_events":"pipeline"})",
            R"({"cmd":"shutdown","id":"bye"})",
        },
        &status);
    EXPECT_EQ(status, 0);
    const std::string done = r["wrap"].back();
    ASSERT_EQ(field(done, "event"), "done") << done;
    EXPECT_EQ(field(done, "pool_hit"), "false");
    EXPECT_EQ(field(done, "events"), "1048576");
    EXPECT_EQ(field(done, "boot_events_on_request_path"), "1");
}

TEST_F(Serve, StructuredErrors)
{
    int status = -1;
    auto r = session(
        {
            std::string(5000, ' '),
            "not json",
            R"({"cmd":"frobnicate","id":"unknown"})",
            R"({"cmd":"load","id":"load","pair":"6+16"})",
            // Workload ids are whole numbers, not numeric prefixes.
            R"({"cmd":"load","id":"junkpair","pair":"6abc+16xyz"})",
            // Malformed numbers outside the config table: each names
            // its key instead of being read as a prefix.
            R"({"cmd":"step","id":"cycles","cycles":"1e6"})",
            R"({"cmd":"pool","id":"count","count":"1e3"})",
            R"({"cmd":"finalize","id":"deadline","deadline_ms":"5s"})",
            R"({"cmd":"finalize","id":"progress","progress_every":"2x"})",
            // sweep's simulation keys go through the config table.
            R"({"cmd":"sweep","id":"maxc","pairs":"6+16",)"
            R"("policy":"occamy","max_cycles":"4e7"})",
            R"({"cmd":"sweep","id":"ff","pairs":"6+16",)"
            R"("policy":"occamy","fast_forward":"of"})",
            R"({"cmd":"sweep","id":"jobs","pairs":"6+16",)"
            R"("policy":"occamy","max_cycles":"1000","jobs":"1x"})",
            // sweep selects pairs like occamy-batchrun: a bad token is
            // an error naming it, and catalog indices are pairs.
            R"({"cmd":"sweep","id":"badpair","pairs":"6+16,bogus",)"
            R"("policy":"occamy","max_cycles":"1000"})",
            R"({"cmd":"sweep","id":"indices","pairs":"1,2",)"
            R"("policy":"occamy","max_cycles":"1000"})",
            R"({"cmd":"step","id":"alive","cycles":"1000"})",
            R"({"cmd":"shutdown","id":"bye"})",
        },
        &status);
    EXPECT_EQ(status, 0);

    // Replies without an id: the oversized line, then the parse error.
    ASSERT_EQ(r[""].size(), 2u);
    EXPECT_EQ(field(r[""][0], "code"), "too_large");
    EXPECT_EQ(field(r[""][1], "code"), "error");
    EXPECT_EQ(field(r[""][1], "error").rfind("parse error", 0), 0u);
    EXPECT_EQ(field(r["unknown"].back(), "error"),
              "unknown cmd: \\\"frobnicate\\\"");
    ASSERT_EQ(r["junkpair"].size(), 1u);
    EXPECT_EQ(field(r["junkpair"][0], "code"), "error");
    EXPECT_EQ(field(r["junkpair"][0], "error"),
              "SPEC workload id out of range");

    const std::map<std::string, std::string> named{
        {"cycles", "--cycles"},          {"count", "--count"},
        {"deadline", "--deadline-ms"},   {"progress", "--progress-every"},
        {"maxc", "--max-cycles"},        {"ff", "--fast-forward"},
        {"jobs", "--jobs"},
    };
    for (const auto &[id, key] : named) {
        ASSERT_EQ(r[id].size(), 1u) << id;
        EXPECT_EQ(field(r[id][0], "ok"), "false") << id;
        EXPECT_EQ(field(r[id][0], "code"), "error") << id;
        EXPECT_EQ(field(r[id][0], "error").rfind(key + " wants", 0), 0u)
            << r[id][0];
    }
    ASSERT_EQ(r["badpair"].size(), 1u);
    EXPECT_EQ(field(r["badpair"][0], "code"), "error");
    EXPECT_EQ(field(r["badpair"][0], "error"), "unknown pair label: bogus");
    ASSERT_FALSE(r["indices"].empty());
    EXPECT_EQ(field(r["indices"].back(), "event"), "sweep_done");
    EXPECT_EQ(field(r["indices"].back(), "jobs"), "2");
    // Rejected requests leave the session where it was.
    EXPECT_EQ(field(r["alive"].back(), "cycle"), "1000");
    EXPECT_EQ(field(r["bye"].back(), "event"), "bye");
}

TEST_F(Serve, SweepRunsOnTheRequestedMachine)
{
    const std::string keys =
        R"("pair":"6+16","policy":"occamy","topology":"2x2")";
    int status = -1;
    auto r = session(
        {
            R"({"cmd":"sweep","id":"sweep","pairs":"6+16",)"
            R"("policy":"occamy","topology":"2x2","jobs":"1"})",
            R"({"cmd":"run","id":"run",)" + keys + "}",
            R"({"cmd":"run","id":"flat","pair":"6+16","policy":"occamy"})",
            R"({"cmd":"shutdown","id":"bye"})",
        },
        &status);
    EXPECT_EQ(status, 0);
    std::string job;
    for (const std::string &line : r["sweep"])
        if (field(line, "event") == "job")
            job = line;
    ASSERT_FALSE(job.empty());
    EXPECT_EQ(field(job, "status"), "ok");
    const std::string run = r["run"].back();
    ASSERT_EQ(field(run, "event"), "done");
    // The 2x2 machine runs 6+16 differently from the flat 1x2 one, and
    // the sweep job is the same simulation as the run.
    EXPECT_NE(field(run, "cycles"), field(r["flat"].back(), "cycles"));
    EXPECT_EQ(field(job, "cycles"), field(run, "cycles"));
    EXPECT_EQ(field(job, "simd_util"), field(run, "simd_util"));
}

TEST_F(Serve, PoolKeyCoversEverySimulationKey)
{
    const std::string spec = R"("policy":"occamy","pair":"20+9")";
    const std::string ckpt = (dir_ / "p.ckpt").string();
    int status = -1;
    auto r = session(
        {
            // One instance per run below, so every run could hit.
            R"({"cmd":"pool","id":"pool","count":"5",)" + spec + "}",
            R"({"cmd":"run","id":"plain",)" + spec + "}",
            R"({"cmd":"run","id":"trace","trace_events":"phase",)" + spec +
                "}",
            R"({"cmd":"run","id":"cap","trace_capacity":"4096",)" + spec +
                "}",
            R"({"cmd":"run","id":"ckpt","checkpoint_out":")" + ckpt +
                R"(","checkpoint_every":"20000",)" + spec + "}",
            // An engine knob that never changes results still hits.
            R"({"cmd":"run","id":"threads","sim_threads":"2",)" + spec +
                "}",
            R"({"cmd":"shutdown","id":"bye"})",
        },
        &status);
    EXPECT_EQ(status, 0);
    EXPECT_EQ(field(r["pool"].back(), "pool_size"), "5");
    const std::map<std::string, std::string> hit{
        {"plain", "true"}, {"trace", "false"},  {"cap", "false"},
        {"ckpt", "false"}, {"threads", "true"},
    };
    for (const auto &[id, want] : hit) {
        const std::string done = r[id].back();
        EXPECT_EQ(field(done, "event"), "done") << done;
        EXPECT_EQ(field(done, "pool_hit"), want) << id;
        EXPECT_EQ(field(done, "cycles"), field(r["plain"].back(), "cycles"))
            << id;
    }
    // The pool misses ran with the request's own keys: the traced run
    // recorded its phases and the checkpointing run wrote its file.
    EXPECT_GT(std::stoull(field(r["trace"].back(), "events")),
              std::stoull(field(r["plain"].back(), "events")));
    EXPECT_TRUE(fs::exists(ckpt));
}

} // namespace
