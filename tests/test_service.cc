/**
 * @file
 * Tests for the hardened compile service (ISSUE 8): wire protocol
 * round-trips and rejections, framing over raw socketpairs, and a
 * live in-process daemon exercised end to end -- bit-identity
 * against direct driver::compileKernel runs, concurrent clients,
 * deadline enforcement, admission-control shedding, graceful drain,
 * and a chaos sweep that fires every failpoint site through the
 * server and demands a typed error or a graceful degrade for the
 * poisoned request while every subsequent request stays correct.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <dirent.h>
#include <memory>
#include <mutex>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "driver/artifact.hh"
#include "driver/compile_context.hh"
#include "driver/pipeline.hh"
#include "driver/registry.hh"
#include "exec/engine.hh"
#include "exec/kernel_cache.hh"
#include "exec/native.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "support/failpoint.hh"

namespace polyfuse {
namespace service {
namespace {

// ---------------------------------------------------------------
// Protocol: encode/decode round-trips and strict rejection.
// ---------------------------------------------------------------

/** A request with every field away from its default. */
Request
fullRequest()
{
    Request req;
    req.op = "compile";
    req.id = 42;
    req.workload = "conv2d";
    req.rows = 64;
    req.cols = 48;
    req.strategy = "hybridfuse";
    req.tiles = {8, 16};
    req.tilesGiven = true;
    req.innerTiles = {4, 4};
    req.tier = "native";
    req.run = false;
    req.deadlineMs = 250.5;
    req.threads = 4;
    return req;
}

/** A request with every field defaulted but the workload. */
Request
bareRequest()
{
    Request bare;
    bare.workload = "conv2d";
    return bare;
}

/** A compile result with every field set. */
Response
okResponse()
{
    Response ok;
    ok.id = 7;
    ok.ok = true;
    ok.fingerprint = "00ff00ff00ff00ff";
    ok.requestedTier = "native";
    ok.tier = "bytecode";
    ok.strategy = "minfuse";
    ok.requestedStrategy = "ours";
    ok.fallbackTrail = {"ours", "hybridfuse"};
    ok.tierFallbackReason = "cc exploded";
    ok.fromCache = true;
    ok.downgraded = true;
    ok.compileMs = 1.5;
    ok.runMs = 0.25;
    ok.queueMs = 0.125;
    ok.retries = 2;
    ok.bufferHash = "deadbeefdeadbeef";
    return ok;
}

/** A typed error. */
Response
errorResponse()
{
    Response bad;
    bad.id = 9;
    bad.ok = false;
    bad.kind = ErrorKind::Overloaded;
    bad.message = "come back later";
    return bad;
}

/** The "stats" op's answer. */
Response
statsResponse()
{
    Response stats;
    stats.id = 11;
    stats.ok = true;
    stats.server.present = true;
    stats.server.accepted = 10;
    stats.server.completed = 9;
    stats.server.shed = 3;
    stats.server.retries = 2;
    stats.server.errors = 1;
    stats.server.timeouts = 1;
    stats.server.cacheHits = 5;
    return stats;
}

TEST(ServiceProtocol, RequestRoundTripsThroughJson)
{
    const Request req = fullRequest();
    Request got;
    std::string err;
    ASSERT_TRUE(decodeRequest(encodeRequest(req), &got, &err)) << err;
    EXPECT_EQ(got.op, req.op);
    EXPECT_EQ(got.id, req.id);
    EXPECT_EQ(got.workload, req.workload);
    EXPECT_EQ(got.rows, req.rows);
    EXPECT_EQ(got.cols, req.cols);
    EXPECT_EQ(got.strategy, req.strategy);
    EXPECT_EQ(got.tiles, req.tiles);
    EXPECT_TRUE(got.tilesGiven);
    EXPECT_EQ(got.innerTiles, req.innerTiles);
    EXPECT_EQ(got.tier, req.tier);
    EXPECT_FALSE(got.run);
    EXPECT_DOUBLE_EQ(got.deadlineMs, req.deadlineMs);
    EXPECT_EQ(got.threads, req.threads);

    // A defaulted request survives too (tiles stay "not given").
    ASSERT_TRUE(decodeRequest(encodeRequest(bareRequest()), &got, &err))
        << err;
    EXPECT_FALSE(got.tilesGiven);
    EXPECT_TRUE(got.run);
    EXPECT_EQ(got.tier, "bytecode");
}

TEST(ServiceProtocol, ResponseRoundTripsOkErrorAndStats)
{
    const Response ok = okResponse();
    Response got;
    std::string err;
    ASSERT_TRUE(decodeResponse(encodeResponse(ok), &got, &err))
        << err;
    EXPECT_TRUE(got.ok);
    EXPECT_EQ(got.id, 7u);
    EXPECT_EQ(got.fingerprint, ok.fingerprint);
    EXPECT_EQ(got.tier, "bytecode");
    EXPECT_EQ(got.requestedTier, "native");
    EXPECT_EQ(got.strategy, "minfuse");
    EXPECT_EQ(got.requestedStrategy, "ours");
    EXPECT_EQ(got.fallbackTrail, ok.fallbackTrail);
    EXPECT_EQ(got.tierFallbackReason, "cc exploded");
    EXPECT_TRUE(got.fromCache);
    EXPECT_TRUE(got.downgraded);
    EXPECT_DOUBLE_EQ(got.compileMs, 1.5);
    EXPECT_DOUBLE_EQ(got.runMs, 0.25);
    EXPECT_DOUBLE_EQ(got.queueMs, 0.125);
    EXPECT_EQ(got.retries, 2u);
    EXPECT_EQ(got.bufferHash, "deadbeefdeadbeef");

    ASSERT_TRUE(decodeResponse(encodeResponse(errorResponse()), &got,
                               &err))
        << err;
    EXPECT_FALSE(got.ok);
    EXPECT_EQ(got.kind, ErrorKind::Overloaded);
    EXPECT_EQ(got.message, "come back later");

    ASSERT_TRUE(decodeResponse(encodeResponse(statsResponse()), &got,
                               &err))
        << err;
    EXPECT_TRUE(got.server.present);
    EXPECT_EQ(got.server.accepted, 10u);
    EXPECT_EQ(got.server.completed, 9u);
    EXPECT_EQ(got.server.shed, 3u);
    EXPECT_EQ(got.server.retries, 2u);
    EXPECT_EQ(got.server.errors, 1u);
    EXPECT_EQ(got.server.timeouts, 1u);
    EXPECT_EQ(got.server.cacheHits, 5u);
}

TEST(ServiceProtocol, RejectsMalformedAndUnknownShapes)
{
    Request req;
    std::string err;
    // Malformed JSON.
    EXPECT_FALSE(decodeRequest("{\"op\": \"ping\"", &req, &err));
    EXPECT_FALSE(decodeRequest("not json at all", &req, &err));
    // Unknown op.
    EXPECT_FALSE(
        decodeRequest("{\"op\": \"explode\", \"id\": 1}", &req,
                      &err));
    // Unknown key: refusing beats guessing.
    EXPECT_FALSE(decodeRequest(
        "{\"op\": \"ping\", \"id\": 1, \"bogus\": true}", &req,
        &err));
    EXPECT_NE(err.find("bogus"), std::string::npos) << err;
    // "simd" is no field: the bytecode VM picks its lane blocks per
    // loop, so a client still asking for them is refused.
    EXPECT_FALSE(decodeRequest(
        "{\"op\": \"compile\", \"id\": 1, \"workload\": \"conv2d\", "
        "\"simd\": \"on\"}",
        &req, &err));
    EXPECT_NE(err.find("simd"), std::string::npos) << err;
    // Nor is "par": the thread count alone picks the team, and the
    // executor picks each region's schedule from its plan.
    EXPECT_FALSE(decodeRequest(
        "{\"op\": \"compile\", \"id\": 1, \"workload\": \"conv2d\", "
        "\"threads\": 2, \"par\": \"static\"}",
        &req, &err));
    EXPECT_NE(err.find("par"), std::string::npos) << err;
    // Every run of N threads starts a team of N: the count is
    // capped at kMaxThreads.
    EXPECT_TRUE(decodeRequest(
        "{\"op\": \"compile\", \"id\": 1, \"workload\": \"conv2d\", "
        "\"threads\": 64}",
        &req, &err))
        << err;
    EXPECT_EQ(req.threads, kMaxThreads);
    EXPECT_FALSE(decodeRequest(
        "{\"op\": \"compile\", \"id\": 1, \"workload\": \"conv2d\", "
        "\"threads\": 65}",
        &req, &err));
    EXPECT_NE(err.find("threads"), std::string::npos) << err;
    // A number JSON forbids (RFC 8259 has no leading '+').
    EXPECT_FALSE(
        decodeRequest("{\"op\": \"ping\", \"id\": +1}", &req, &err));
    // Out-of-range values.
    EXPECT_FALSE(decodeRequest(
        "{\"op\": \"compile\", \"id\": 1, \"workload\": \"c\", "
        "\"rows\": -4}",
        &req, &err));
    EXPECT_FALSE(decodeRequest(
        "{\"op\": \"compile\", \"id\": 1, \"workload\": \"c\", "
        "\"tiles\": [0]}",
        &req, &err));
    EXPECT_FALSE(decodeRequest(
        "{\"op\": \"compile\", \"id\": 1, \"workload\": \"c\", "
        "\"tiles\": [1099511627776]}",
        &req, &err));

    Response resp;
    EXPECT_FALSE(decodeResponse("{\"id\": 1}", &resp, &err));
    EXPECT_FALSE(decodeResponse(
        "{\"id\": 1, \"ok\": false, \"error\": {\"kind\": "
        "\"weird\", \"message\": \"m\"}}",
        &resp, &err));
}

/** Call @p fn on every single-bit flip of @p frame, every overwrite
 *  of one byte with a JSON structural byte, and every truncation. */
template <typename Fn>
void
forEachMutation(const std::string &frame, Fn fn)
{
    for (size_t i = 0; i < frame.size(); ++i) {
        std::string text = frame;
        for (int bit = 0; bit < 8; ++bit) {
            text[i] = char(frame[i] ^ (1 << bit));
            fn(text);
        }
        for (char c : std::string("{}[]\",: 0e-\\")) {
            text[i] = c;
            if (c != frame[i])
                fn(text);
        }
        fn(frame.substr(0, i));
    }
}

TEST(ServiceProtocol, MutatedFramesAreRefusedOrReencodeToAFixedPoint)
{
    std::string err;
    for (const Request &req : {fullRequest(), bareRequest()}) {
        forEachMutation(encodeRequest(req), [&](const std::string &f) {
            Request got;
            bool ok = false;
            EXPECT_NO_THROW(ok = decodeRequest(f, &got, &err)) << f;
            if (!ok)
                return;
            std::string once = encodeRequest(got);
            Request again;
            ASSERT_TRUE(decodeRequest(once, &again, &err))
                << f << " -> " << once << ": " << err;
            EXPECT_EQ(encodeRequest(again), once) << f;
        });
    }
    for (const Response &resp :
         {okResponse(), errorResponse(), statsResponse()}) {
        forEachMutation(encodeResponse(resp), [&](const std::string &f) {
            Response got;
            bool ok = false;
            EXPECT_NO_THROW(ok = decodeResponse(f, &got, &err)) << f;
            if (!ok)
                return;
            std::string once = encodeResponse(got);
            Response again;
            ASSERT_TRUE(decodeResponse(once, &again, &err))
                << f << " -> " << once << ": " << err;
            EXPECT_EQ(encodeResponse(again), once) << f;
        });
    }
}

TEST(ServiceProtocol, ErrorKindNamesRoundTrip)
{
    const ErrorKind kinds[] = {
        ErrorKind::BadRequest, ErrorKind::Overloaded,
        ErrorKind::Timeout,    ErrorKind::Cancelled,
        ErrorKind::Fatal,      ErrorKind::Panic,
        ErrorKind::Internal,   ErrorKind::Oversized,
        ErrorKind::Shutdown,
    };
    for (ErrorKind kind : kinds) {
        ErrorKind parsed;
        ASSERT_TRUE(parseErrorKind(errorKindName(kind), &parsed))
            << errorKindName(kind);
        EXPECT_EQ(parsed, kind);
    }
    ErrorKind parsed;
    EXPECT_FALSE(parseErrorKind("weird", &parsed));
    EXPECT_STREQ(errorKindName(ErrorKind::None), "");
}

// ---------------------------------------------------------------
// Framing over a raw socketpair.
// ---------------------------------------------------------------

struct SocketPair
{
    int a = -1;
    int b = -1;
    SocketPair()
    {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0) {
            a = fds[0];
            b = fds[1];
        }
    }
    ~SocketPair()
    {
        if (a >= 0)
            ::close(a);
        if (b >= 0)
            ::close(b);
    }
    void
    closeA()
    {
        ::close(a);
        a = -1;
    }
};

TEST(ServiceFraming, RoundTripsAndReportsCleanEof)
{
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    std::string err;
    ASSERT_TRUE(writeFrame(sp.a, "hello frame", &err)) << err;
    ASSERT_TRUE(writeFrame(sp.a, "", &err)) << err; // empty payload

    std::string payload;
    EXPECT_EQ(readFrame(sp.b, &payload, &err), FrameStatus::Ok);
    EXPECT_EQ(payload, "hello frame");
    EXPECT_EQ(readFrame(sp.b, &payload, &err), FrameStatus::Ok);
    EXPECT_EQ(payload, "");

    sp.closeA();
    EXPECT_EQ(readFrame(sp.b, &payload, &err), FrameStatus::Eof);
}

TEST(ServiceFraming, TruncatedFrameIsAnError)
{
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    // Announce 100 bytes, deliver 10, hang up.
    uint32_t len = 100;
    unsigned char hdr[4] = {
        (unsigned char)(len & 0xff),
        (unsigned char)((len >> 8) & 0xff),
        (unsigned char)((len >> 16) & 0xff),
        (unsigned char)((len >> 24) & 0xff),
    };
    ASSERT_EQ(::send(sp.a, hdr, 4, 0), 4);
    ASSERT_EQ(::send(sp.a, "0123456789", 10, 0), 10);
    sp.closeA();

    std::string payload, err;
    EXPECT_EQ(readFrame(sp.b, &payload, &err), FrameStatus::Error);
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(ServiceFraming, EofAfterHeaderReportsTruncatedFrame)
{
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    // Announce 12 bytes, deliver none, hang up: still a truncated
    // frame, and the diagnostic must say so (not come back empty).
    uint32_t len = 12;
    unsigned char hdr[4] = {
        (unsigned char)(len & 0xff),
        (unsigned char)((len >> 8) & 0xff),
        (unsigned char)((len >> 16) & 0xff),
        (unsigned char)((len >> 24) & 0xff),
    };
    ASSERT_EQ(::send(sp.a, hdr, 4, 0), 4);
    sp.closeA();

    std::string payload, err;
    EXPECT_EQ(readFrame(sp.b, &payload, &err), FrameStatus::Error);
    EXPECT_NE(err.find("truncated"), std::string::npos) << err;
}

TEST(ServiceFraming, OversizedAnnouncementIsRejectedUnread)
{
    SocketPair sp;
    ASSERT_GE(sp.a, 0);
    uint32_t len = kMaxFrameBytes + 1;
    unsigned char hdr[4] = {
        (unsigned char)(len & 0xff),
        (unsigned char)((len >> 8) & 0xff),
        (unsigned char)((len >> 16) & 0xff),
        (unsigned char)((len >> 24) & 0xff),
    };
    ASSERT_EQ(::send(sp.a, hdr, 4, 0), 4);
    std::string payload, err;
    EXPECT_EQ(readFrame(sp.b, &payload, &err),
              FrameStatus::Oversized);

    // A caller-supplied cap below the default is honored too.
    SocketPair sp2;
    ASSERT_GE(sp2.a, 0);
    ASSERT_TRUE(writeFrame(sp2.a, "0123456789", &err)) << err;
    EXPECT_EQ(readFrame(sp2.b, &payload, &err, /*max_bytes=*/4),
              FrameStatus::Oversized);
}

// ---------------------------------------------------------------
// Live daemon fixture.
// ---------------------------------------------------------------

class ServiceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        failpoints::clearAll();
        exec::KernelCache::process().clear();
    }
    void
    TearDown() override
    {
        failpoints::clearAll();
    }

    /** Short unique socket path (sun_path caps at ~107 bytes). */
    std::string
    sockPath() const
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = info ? info->name() : "svc";
        if (name.size() > 24)
            name.resize(24);
        return "/tmp/pf_" + std::to_string(::getpid()) + "_" + name +
               ".sock";
    }

    std::unique_ptr<Server>
    startServer(ServerOptions opts = {})
    {
        // Tests never really sleep between retries.
        if (!opts.nativeRetry.sleep)
            opts.nativeRetry.sleep = [](double) {};
        auto srv =
            std::make_unique<Server>(sockPath(), std::move(opts));
        std::string err;
        EXPECT_TRUE(srv->start(&err)) << err;
        return srv;
    }

    Client
    connectTo(const Server &srv)
    {
        Client c;
        std::string err;
        EXPECT_TRUE(c.connect(srv.socketPath(), &err)) << err;
        return c;
    }

    static Request
    compileReq(const std::string &workload, uint64_t id,
               std::vector<int64_t> tiles = {})
    {
        Request req;
        req.op = "compile";
        req.id = id;
        req.workload = workload;
        req.rows = 32;
        req.cols = 32;
        if (!tiles.empty()) {
            req.tiles = std::move(tiles);
            req.tilesGiven = true;
        }
        return req;
    }

    /** The same compile+run the server performs, straight through
     *  the driver with no cache: the bit-identity reference. */
    static std::string
    directHash(const Request &req)
    {
        const driver::WorkloadSpec *spec =
            driver::findWorkload(req.workload);
        if (!spec)
            return "<unknown workload>";
        driver::PipelineOptions popts;
        if (!driver::parseStrategy(req.strategy, popts.strategy))
            return "<unknown strategy>";
        exec::Tier tier;
        if (!exec::parseTier(req.tier, &tier))
            return "<unknown tier>";
        driver::WorkloadParams params = spec->defaults;
        if (req.rows > 0)
            params.rows = req.rows;
        if (req.cols > 0)
            params.cols = req.cols;
        popts.tileSizes =
            req.tilesGiven ? req.tiles : spec->defaultTiles;
        popts.innerTileSizes = req.innerTiles;
        auto program = std::make_shared<const ir::Program>(
            spec->make(params));
        driver::Pipeline pipeline(popts);
        driver::CompileContext ctx;
        driver::KernelArtifact artifact = driver::compileKernel(
            pipeline, program, ctx, driver::ArtifactOptions{});
        exec::Buffers buffers(*program);
        fillServiceInputs(*program, buffers);
        exec::ExecOptions eopts;
        eopts.tier = tier;
        eopts.threads = req.threads;
        driver::executeKernel(artifact, buffers, eopts);
        return hashBuffers(buffers);
    }
};

TEST_F(ServiceTest, PingStatsAndShutdownOps)
{
    auto srv = startServer();
    Client c = connectTo(*srv);

    Request ping;
    ping.op = "ping";
    ping.id = 1;
    Response resp;
    std::string err;
    ASSERT_TRUE(c.call(ping, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.id, 1u);

    Request stats;
    stats.op = "stats";
    stats.id = 2;
    ASSERT_TRUE(c.call(stats, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    ASSERT_TRUE(resp.server.present);
    EXPECT_EQ(resp.server.accepted, 0u);

    Request shutdown;
    shutdown.op = "shutdown";
    shutdown.id = 3;
    ASSERT_TRUE(c.call(shutdown, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    EXPECT_TRUE(srv->waitForShutdownRequest(/*ms=*/5000));
    srv->stop();
}

TEST_F(ServiceTest, CompileMatchesDirectExecutionBitForBit)
{
    auto srv = startServer();
    Client c = connectTo(*srv);

    Request req = compileReq("conv2d", 1, {8, 8});
    Response resp;
    std::string err;
    ASSERT_TRUE(c.call(req, &resp, &err)) << err;
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_FALSE(resp.fromCache);
    EXPECT_EQ(resp.tier, "bytecode");
    EXPECT_FALSE(resp.fingerprint.empty());
    ASSERT_FALSE(resp.bufferHash.empty());
    EXPECT_EQ(resp.bufferHash, directHash(req));

    // Warm repeat: served from the kernel cache, same bits.
    Request again = req;
    again.id = 2;
    Response warm;
    ASSERT_TRUE(c.call(again, &warm, &err)) << err;
    ASSERT_TRUE(warm.ok) << warm.message;
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(warm.fingerprint, resp.fingerprint);
    EXPECT_EQ(warm.bufferHash, resp.bufferHash);

    // `completed` ticks just *after* the response frame is written,
    // so settle before reading the counters over the wire.
    ServerStats settled = srv->stats();
    for (int spin = 0;
         spin < 1000 && settled.completed < settled.accepted; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        settled = srv->stats();
    }

    Response sresp;
    Request stats;
    stats.op = "stats";
    stats.id = 3;
    ASSERT_TRUE(c.call(stats, &sresp, &err)) << err;
    EXPECT_EQ(sresp.server.accepted, 2u);
    EXPECT_EQ(sresp.server.completed, 2u);
    EXPECT_EQ(sresp.server.cacheHits, 1u);
    EXPECT_EQ(sresp.server.errors, 0u);
}

TEST_F(ServiceTest, MalformedFrameGetsBadRequestAndConnSurvives)
{
    auto srv = startServer();
    Client c = connectTo(*srv);

    // Straight garbage, a number JSON forbids and a field the
    // protocol does not have, each in a well-formed frame: typed
    // badrequest.
    std::string err;
    Response resp;
    for (const char *frame :
         {"this is not json", "{\"op\": \"ping\", \"id\": +1}",
          "{\"op\": \"compile\", \"id\": 2, \"workload\": "
          "\"conv2d\", \"simd\": \"on\"}"}) {
        ASSERT_TRUE(writeFrame(c.fd(), frame, &err)) << err;
        std::string payload;
        ASSERT_EQ(readFrame(c.fd(), &payload, &err), FrameStatus::Ok)
            << err;
        ASSERT_TRUE(decodeResponse(payload, &resp, &err)) << err;
        EXPECT_FALSE(resp.ok) << frame;
        EXPECT_EQ(resp.kind, ErrorKind::BadRequest) << frame;
    }

    // The same connection keeps working afterwards.
    Request ping;
    ping.op = "ping";
    ping.id = 5;
    ASSERT_TRUE(c.call(ping, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
}

TEST_F(ServiceTest, IdsUpTo2Pow53AreEchoedVerbatimOthersAreBadRequests)
{
    auto srv = startServer();
    Client c = connectTo(*srv);
    auto roundTrip = [&](const std::string &id, Response *resp) {
        std::string err, payload;
        EXPECT_TRUE(writeFrame(
            c.fd(), "{\"op\": \"ping\", \"id\": " + id + "}", &err))
            << err;
        EXPECT_EQ(readFrame(c.fd(), &payload, &err), FrameStatus::Ok)
            << err;
        EXPECT_TRUE(decodeResponse(payload, resp, &err)) << err;
        return payload;
    };

    // 2^53 is the largest id a JSON double holds exactly: it comes
    // back digit for digit.
    Response resp;
    std::string payload = roundTrip("9007199254740992", &resp);
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.id, uint64_t(1) << 53);
    EXPECT_EQ(payload.rfind("{\"id\": 9007199254740992, ", 0), 0u)
        << payload;

    // Past it a double skips integers: 2^53 + 1 would come back as
    // 2^53, so it is refused, as is the old 1e18-capped range.
    for (const char *id : {"9007199254740993", "999999999999999999"}) {
        roundTrip(id, &resp);
        EXPECT_FALSE(resp.ok) << id;
        EXPECT_EQ(resp.kind, ErrorKind::BadRequest) << id;
    }
}

TEST_F(ServiceTest, OversizedFrameIsAnsweredThenConnectionCloses)
{
    auto srv = startServer();
    Client c = connectTo(*srv);

    uint32_t len = kMaxFrameBytes + 1;
    unsigned char hdr[4] = {
        (unsigned char)(len & 0xff),
        (unsigned char)((len >> 8) & 0xff),
        (unsigned char)((len >> 16) & 0xff),
        (unsigned char)((len >> 24) & 0xff),
    };
    ASSERT_EQ(::send(c.fd(), hdr, 4, MSG_NOSIGNAL), 4);

    std::string payload, err;
    ASSERT_EQ(readFrame(c.fd(), &payload, &err), FrameStatus::Ok)
        << err;
    Response resp;
    ASSERT_TRUE(decodeResponse(payload, &resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, ErrorKind::Oversized);
    // The stream position is unrecoverable: the server hangs up.
    EXPECT_EQ(readFrame(c.fd(), &payload, &err), FrameStatus::Eof);

    // The daemon itself is fine: a fresh connection works.
    Client c2 = connectTo(*srv);
    Request ping;
    ping.op = "ping";
    ping.id = 1;
    ASSERT_TRUE(c2.call(ping, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
}

TEST_F(ServiceTest, UnknownWorkloadStrategyTierAreBadRequests)
{
    auto srv = startServer();
    Client c = connectTo(*srv);
    Response resp;
    std::string err;

    Request req = compileReq("blur9000", 1);
    ASSERT_TRUE(c.call(req, &resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, ErrorKind::BadRequest);
    EXPECT_NE(resp.message.find("blur9000"), std::string::npos);

    req = compileReq("conv2d", 2);
    req.strategy = "yolo";
    ASSERT_TRUE(c.call(req, &resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, ErrorKind::BadRequest);

    req = compileReq("conv2d", 3);
    req.tier = "quantum";
    ASSERT_TRUE(c.call(req, &resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, ErrorKind::BadRequest);

    // Typed rejections never wedge the daemon.
    Request good = compileReq("conv2d", 4, {8, 8});
    ASSERT_TRUE(c.call(good, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok) << resp.message;
}

TEST_F(ServiceTest, ConcurrentClientsGetBitIdenticalResults)
{
    auto srv = startServer();

    const std::vector<std::string> workloads = {"conv2d", "2mm",
                                                "gemver"};
    std::vector<std::string> expected;
    for (const auto &w : workloads)
        expected.push_back(directHash(compileReq(w, 0)));

    const int kClients = 6;
    std::vector<std::thread> threads;
    std::vector<std::string> failures(kClients);
    std::vector<std::vector<std::string>> hashes(
        kClients, std::vector<std::string>(workloads.size()));
    for (int i = 0; i < kClients; ++i)
        threads.emplace_back([&, i] {
            Client c;
            std::string err;
            if (!c.connect(srv->socketPath(), &err)) {
                failures[i] = "connect: " + err;
                return;
            }
            for (size_t w = 0; w < workloads.size(); ++w) {
                Request req =
                    compileReq(workloads[w], uint64_t(i * 100 + w));
                Response resp;
                if (!c.call(req, &resp, &err)) {
                    failures[i] = "call: " + err;
                    return;
                }
                if (!resp.ok) {
                    failures[i] = "response: " + resp.message;
                    return;
                }
                hashes[i][w] = resp.bufferHash;
            }
        });
    for (auto &t : threads)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        EXPECT_TRUE(failures[i].empty())
            << "client " << i << ": " << failures[i];
        for (size_t w = 0; w < workloads.size(); ++w)
            EXPECT_EQ(hashes[i][w], expected[w])
                << "client " << i << " workload " << workloads[w];
    }

    // `completed` ticks just *after* the response frame is written,
    // so a client can observe its reply before the counter moves:
    // give the workers a moment to settle.
    ServerStats stats = srv->stats();
    for (int spin = 0;
         spin < 1000 && stats.completed < stats.accepted; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        stats = srv->stats();
    }
    EXPECT_EQ(stats.accepted, uint64_t(kClients) * workloads.size());
    EXPECT_EQ(stats.completed, stats.accepted);
    EXPECT_EQ(stats.shed, 0u);
    EXPECT_EQ(stats.errors, 0u);
}

TEST_F(ServiceTest, DeadlineExpiresToTypedTimeout)
{
    auto srv = startServer();
    Client c = connectTo(*srv);

    // camera is the registry's 16-stage pipeline: its compile cannot
    // finish inside a 0.01 ms allowance, whichever of the three
    // checkpoints (queue, budget trip, post-compile) catches it.
    Request req = compileReq("camera", 1);
    req.deadlineMs = 0.01;
    Response resp;
    std::string err;
    ASSERT_TRUE(c.call(req, &resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, ErrorKind::Timeout) << resp.message;

    EXPECT_EQ(srv->stats().timeouts, 1u);

    // A deadline miss poisons nothing: the same request without a
    // deadline completes.
    Request calm = compileReq("conv2d", 2, {8, 8});
    ASSERT_TRUE(c.call(calm, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok) << resp.message;
}

TEST_F(ServiceTest, OverloadShedsWithTypedErrorAndDaemonStaysLive)
{
    // Every admitted reply still carries the direct-execution bits.
    const std::string expect =
        directHash(compileReq("conv2d", 0, {8, 8}));

    // One worker, queue depth 2: the third concurrent compile sheds.
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    ServerOptions opts;
    opts.workers = 1;
    opts.maxQueueDepth = 2;
    opts.handlerHook = [&](const Request &) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
    };
    auto srv = startServer(std::move(opts));

    Client c1 = connectTo(*srv);
    Client c2 = connectTo(*srv);
    Client c3 = connectTo(*srv);
    std::string err;

    // Admit #1 (parks in the hook) and #2 (queued), in order.
    ASSERT_TRUE(writeFrame(c1.fd(),
                           encodeRequest(compileReq("conv2d", 1,
                                                    {8, 8})),
                           &err))
        << err;
    while (srv->stats().accepted < 1)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(writeFrame(c2.fd(),
                           encodeRequest(compileReq("conv2d", 2,
                                                    {8, 8})),
                           &err))
        << err;
    while (srv->stats().accepted < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    // #3 exceeds the depth cap: shed immediately, typed, while the
    // first two are still in flight.
    Request shedme = compileReq("conv2d", 3, {8, 8});
    Response resp;
    Client cshed = std::move(c3);
    ASSERT_TRUE(cshed.call(shedme, &resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, ErrorKind::Overloaded);
    EXPECT_NE(resp.message.find("queue depth"), std::string::npos)
        << resp.message;
    EXPECT_EQ(srv->stats().shed, 1u);

    // Release the parked workers; both admitted requests complete.
    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    std::string payload;
    ASSERT_EQ(readFrame(c1.fd(), &payload, &err), FrameStatus::Ok)
        << err;
    ASSERT_TRUE(decodeResponse(payload, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.bufferHash, expect);
    ASSERT_EQ(readFrame(c2.fd(), &payload, &err), FrameStatus::Ok)
        << err;
    ASSERT_TRUE(decodeResponse(payload, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.bufferHash, expect);

    // The daemon recovered: a fresh request succeeds. Admission
    // slots free a beat after the replies land (the guard destructor
    // runs after the response write), so `overloaded` here means
    // "come back later" -- retry briefly, never accept other kinds.
    bool recovered = false;
    for (int attempt = 0; attempt < 1000 && !recovered; ++attempt) {
        ASSERT_TRUE(
            cshed.call(compileReq("conv2d", 4, {8, 8}), &resp, &err))
            << err;
        if (resp.ok) {
            recovered = true;
            EXPECT_EQ(resp.bufferHash, expect);
        } else {
            ASSERT_EQ(resp.kind, ErrorKind::Overloaded)
                << resp.message;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    }
    EXPECT_TRUE(recovered);
}

TEST_F(ServiceTest, InflightByteCapShedsToo)
{
    ServerOptions opts;
    opts.maxInflightBytes = 1; // any request frame exceeds this
    auto srv = startServer(std::move(opts));
    Client c = connectTo(*srv);

    Response resp;
    std::string err;
    ASSERT_TRUE(c.call(compileReq("conv2d", 1), &resp, &err)) << err;
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.kind, ErrorKind::Overloaded);
    EXPECT_NE(resp.message.find("byte cap"), std::string::npos)
        << resp.message;
    EXPECT_EQ(srv->stats().shed, 1u);
}

// ---------------------------------------------------------------
// Chaos sweep: every failpoint site fires once through the server.
// The poisoned request must come back as a typed error or a graceful
// degrade, and every subsequent request must stay bit-identical.
// ---------------------------------------------------------------

TEST_F(ServiceTest, ChaosSweepEveryFailpointSite)
{
    auto srv = startServer();
    Client c = connectTo(*srv);
    std::string err;

    // The clean baseline every post-poison probe must reproduce.
    const Request baseline = compileReq("conv2d", 999, {4, 4});
    Response resp;
    ASSERT_TRUE(c.call(baseline, &resp, &err)) << err;
    ASSERT_TRUE(resp.ok) << resp.message;
    const std::string baselineHash = resp.bufferHash;
    ASSERT_FALSE(baselineHash.empty());

    enum Expect
    {
        TypedError,     ///< resp.ok == false with the given kind
        OkDegraded,     ///< ok, but the strategy ladder downgraded
        OkBytecodeTier, ///< ok, native degraded to bytecode
        OkDegradedPar,  ///< ok, parallel planning degraded
        OkUntouched,    ///< site not on the service path: no effect
    };
    struct Case
    {
        const char *site;
        failpoints::Action action;
        Expect expect;
        ErrorKind kind; ///< for TypedError
    };
    const Case cases[] = {
        // The service's own handler entry.
        {"service.handle", failpoints::Action::Fatal, TypedError,
         ErrorKind::Fatal},
        {"service.handle", failpoints::Action::Panic, TypedError,
         ErrorKind::Panic},
        {"service.handle", failpoints::Action::Error, TypedError,
         ErrorKind::Internal},
        {"service.handle", failpoints::Action::BadAlloc, TypedError,
         ErrorKind::Internal},
        // A budget trip before the ladder can absorb it: with no
        // deadline and no shutdown, it still must answer typed.
        {"service.handle", failpoints::Action::Budget, TypedError,
         ErrorKind::Timeout},
        // Presburger layer.
        {"pres.parse", failpoints::Action::Fatal, TypedError,
         ErrorKind::Fatal},
        {"pres.eliminateCol", failpoints::Action::Fatal, TypedError,
         ErrorKind::Fatal},
        {"pres.simplifyRows", failpoints::Action::Panic, TypedError,
         ErrorKind::Panic},
        // Core transformation + codegen layer.
        {"core.compose", failpoints::Action::Fatal, TypedError,
         ErrorKind::Fatal},
        {"core.footprint", failpoints::Action::Fatal, TypedError,
         ErrorKind::Fatal},
        {"codegen.generate", failpoints::Action::Fatal, TypedError,
         ErrorKind::Fatal},
        // Budget trips ride the strategy-fallback ladder instead of
        // erroring: a downgraded artifact is a success.
        {"core.compose", failpoints::Action::Budget, OkDegraded,
         ErrorKind::None},
        // Native tier: transient failures degrade to bytecode after
        // retries; the request still succeeds bit-identically.
        {"exec.native.compile", failpoints::Action::Error,
         OkBytecodeTier, ErrorKind::None},
        {"exec.native.transient", failpoints::Action::Error,
         OkBytecodeTier, ErrorKind::None},
        {"exec.native.dlopen", failpoints::Action::Error,
         OkBytecodeTier, ErrorKind::None},
        // Parallel planning degrades to the sequential path.
        {"exec.par.spawn", failpoints::Action::Error, OkDegradedPar,
         ErrorKind::None},
        {"exec.par.tilegraph", failpoints::Action::Error,
         OkDegradedPar, ErrorKind::None},
        // Batch-driver site: not on the service path, so arming it
        // must not disturb a service request.
        {"driver.job.conv2d", failpoints::Action::Fatal, OkUntouched,
         ErrorKind::None},
    };

    uint64_t id = 1000;
    int64_t tile = 5;
    for (const Case &cs : cases) {
        SCOPED_TRACE(std::string(cs.site) + " / " +
                     std::to_string(int(cs.action)));
        failpoints::set(cs.site, cs.action);

        // Unique tiles defeat the kernel cache: a cache hit would
        // skip the poisoned pipeline and mask the failure.
        Request poisoned =
            compileReq("conv2d", ++id, {tile, tile + 1});
        tile += 2;
        if (cs.expect == OkBytecodeTier) {
            poisoned.tier = "native";
        } else if (cs.expect == OkDegradedPar) {
            poisoned.threads = 2;
            // The tile-graph site plans wavefront bands only:
            // seidel/minfuse at 32x32 with 5x6 tiles is a 42-tile
            // DAG with critical path 12, which a clean run drains
            // through the ready queue.
            if (std::strcmp(cs.site, "exec.par.tilegraph") == 0) {
                poisoned.workload = "seidel";
                poisoned.strategy = "minfuse";
                poisoned.tiles = {5, 6};
            }
        }

        ASSERT_TRUE(c.call(poisoned, &resp, &err))
            << cs.site << ": " << err;
        // Disarm before computing any in-process reference hash:
        // directHash compiles through the same global failpoints.
        failpoints::clearAll();
        switch (cs.expect) {
        case TypedError:
            EXPECT_FALSE(resp.ok) << cs.site;
            EXPECT_EQ(resp.kind, cs.kind)
                << cs.site << ": " << resp.message;
            break;
        case OkDegraded: {
            ASSERT_TRUE(resp.ok) << cs.site << ": " << resp.message;
            EXPECT_TRUE(resp.downgraded) << cs.site;
            EXPECT_FALSE(resp.fallbackTrail.empty()) << cs.site;
            // Correct for the strategy it actually landed on.
            Request ref = poisoned;
            ref.strategy = resp.strategy;
            EXPECT_EQ(resp.bufferHash, directHash(ref)) << cs.site;
            break;
        }
        case OkBytecodeTier: {
            ASSERT_TRUE(resp.ok) << cs.site << ": " << resp.message;
            EXPECT_EQ(resp.tier, "bytecode") << cs.site;
            EXPECT_EQ(resp.requestedTier, "native") << cs.site;
            Request ref = poisoned;
            ref.tier = "bytecode";
            EXPECT_EQ(resp.bufferHash, directHash(ref)) << cs.site;
            break;
        }
        case OkDegradedPar: {
            ASSERT_TRUE(resp.ok) << cs.site << ": " << resp.message;
            // Degraded parallel planning means a sequential run.
            EXPECT_EQ(resp.backend, "bytecode") << cs.site;
            Request ref = poisoned;
            ref.threads = 1;
            EXPECT_EQ(resp.bufferHash, directHash(ref)) << cs.site;
            // Disarmed, the same request runs on the team.
            Request clean = poisoned;
            clean.id = ++id;
            ASSERT_TRUE(c.call(clean, &resp, &err))
                << cs.site << ": " << err;
            ASSERT_TRUE(resp.ok) << cs.site << ": " << resp.message;
            EXPECT_EQ(resp.backend, "bytecode+par2") << cs.site;
            EXPECT_EQ(resp.bufferHash, directHash(ref)) << cs.site;
            break;
        }
        case OkUntouched:
            ASSERT_TRUE(resp.ok) << cs.site << ": " << resp.message;
            EXPECT_EQ(resp.bufferHash, directHash(poisoned))
                << cs.site;
            break;
        }

        // Demand a perfect follow-up: the poisoned request must not
        // have wedged workers, accounting, or the connection.
        Request probe = baseline;
        probe.id = ++id;
        ASSERT_TRUE(c.call(probe, &resp, &err))
            << cs.site << ": " << err;
        ASSERT_TRUE(resp.ok) << cs.site << ": " << resp.message;
        EXPECT_EQ(resp.bufferHash, baselineHash) << cs.site;
    }

    // Nothing leaked: admissions balance completions (the counter
    // ticks just after the reply is written, so settle briefly).
    ServerStats stats = srv->stats();
    for (int spin = 0;
         spin < 1000 && stats.completed < stats.accepted; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        stats = srv->stats();
    }
    EXPECT_EQ(stats.completed, stats.accepted);
}

TEST_F(ServiceTest, TransientNativeFailureRetriesThenDegrades)
{
    std::vector<double> delays;
    std::mutex delaysMu;
    ServerOptions opts;
    opts.nativeRetry.attempts = 3;
    opts.nativeRetry.baseMs = 1.0;
    opts.nativeRetry.multiplier = 2.0;
    opts.nativeRetry.sleep = [&](double ms) {
        std::lock_guard<std::mutex> lock(delaysMu);
        delays.push_back(ms);
    };
    auto srv = startServer(std::move(opts));
    Client c = connectTo(*srv);
    std::string err;

    // The degraded reply must carry the bytecode tier's bits (taken
    // before the failpoint is armed).
    Request req = compileReq("conv2d", 1, {8, 8});
    const std::string expect = directHash(req);
    failpoints::set("exec.native.transient",
                    failpoints::Action::Error);
    req.tier = "native";
    Response resp;
    ASSERT_TRUE(c.call(req, &resp, &err)) << err;
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.tier, "bytecode");
    EXPECT_FALSE(resp.tierFallbackReason.empty());
    EXPECT_EQ(resp.bufferHash, expect);

    if (exec::NativeKernel::toolchainAvailable()) {
        // The failpoint sits past the toolchain probe: every attempt
        // was transient, so the full schedule ran.
        EXPECT_EQ(resp.retries, 2u);
        {
            std::lock_guard<std::mutex> lock(delaysMu);
            ASSERT_EQ(delays.size(), 2u);
            EXPECT_DOUBLE_EQ(delays[0], 1.0);
            EXPECT_DOUBLE_EQ(delays[1], 2.0);
        }
        EXPECT_EQ(srv->stats().retries, 2u);

        // Transient failures are not memoized: with the failpoint
        // cleared, the *same* cached artifact compiles native on the
        // next request.
        failpoints::clearAll();
        Request again = req;
        again.id = 2;
        ASSERT_TRUE(c.call(again, &resp, &err)) << err;
        ASSERT_TRUE(resp.ok) << resp.message;
        EXPECT_TRUE(resp.fromCache);
        EXPECT_EQ(resp.tier, "native");
        EXPECT_EQ(resp.retries, 0u);
    } else {
        // No toolchain: the probe fails permanently before the
        // failpoint, so the degrade happens without retries.
        EXPECT_EQ(resp.retries, 0u);
    }
}

TEST_F(ServiceTest, DrainAnswersQueuedShutdownAndInflightCancelled)
{
    // One worker; the first request parks in the handler hook for
    // longer than the drain deadline, the second waits behind it in
    // the queue. stop() must answer the queued one with `shutdown`
    // (its closure is destroyed unrun) and the parked one with
    // `cancelled` (the server token trips its budget when the drain
    // deadline passes).
    ServerOptions opts;
    opts.workers = 1;
    opts.drainMs = 100;
    std::atomic<int> parked{0};
    opts.handlerHook = [&](const Request &req) {
        if (req.id == 1) {
            ++parked;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(600));
        }
    };
    auto srv = startServer(std::move(opts));

    std::string errA, errB;
    Response respA, respB;
    bool okA = false, okB = false;
    std::thread ta([&] {
        Client c;
        if (!c.connect(srv->socketPath(), &errA))
            return;
        okA = c.call(compileReq("conv2d", 1, {8, 8}), &respA, &errA);
    });
    while (parked.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::thread tb([&] {
        Client c;
        if (!c.connect(srv->socketPath(), &errB))
            return;
        okB = c.call(compileReq("conv2d", 2, {8, 8}), &respB, &errB);
    });
    while (srv->stats().accepted < 2)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

    srv->stop();
    ta.join();
    tb.join();

    ASSERT_TRUE(okA) << errA;
    EXPECT_FALSE(respA.ok);
    EXPECT_EQ(respA.kind, ErrorKind::Cancelled) << respA.message;
    ASSERT_TRUE(okB) << errB;
    EXPECT_FALSE(respB.ok);
    EXPECT_EQ(respB.kind, ErrorKind::Shutdown) << respB.message;

    // Every admission produced exactly one response.
    ServerStats stats = srv->stats();
    EXPECT_EQ(stats.accepted, 2u);
    EXPECT_EQ(stats.completed, 2u);
}

TEST_F(ServiceTest, ShutdownOpWakesBlockingWait)
{
    // Regression: the shutdown op must publish the flag under the
    // server mutex, or this blocking (ms <= 0) wait can miss the
    // wakeup forever.
    auto srv = startServer();
    std::thread waiter([&] { srv->waitForShutdownRequest(); });

    Client c = connectTo(*srv);
    Request shutdown;
    shutdown.op = "shutdown";
    shutdown.id = 1;
    Response resp;
    std::string err;
    ASSERT_TRUE(c.call(shutdown, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    waiter.join(); // hangs here if the wakeup was lost
    srv->stop();
}

/** Open fds of this process (-1 if /proc is unavailable). */
int
countOpenFds()
{
    DIR *d = ::opendir("/proc/self/fd");
    if (!d)
        return -1;
    int n = 0;
    while (::readdir(d))
        ++n;
    ::closedir(d);
    return n;
}

TEST_F(ServiceTest, ConnectionChurnReclaimsFds)
{
    auto srv = startServer();

    auto ping = [&](uint64_t id) {
        Client c = connectTo(*srv);
        Request req;
        req.op = "ping";
        req.id = id;
        Response resp;
        std::string err;
        ASSERT_TRUE(c.call(req, &resp, &err)) << err;
        EXPECT_TRUE(resp.ok);
    };

    // Warm up one connect/disconnect cycle, then let its reader
    // reap so the baseline is a settled daemon.
    ping(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int baseline = countOpenFds();
    if (baseline < 0)
        GTEST_SKIP() << "/proc/self/fd unavailable";

    // 50 connect/request/disconnect cycles: each must release its
    // server-side fd and reader thread, not park them until stop().
    for (uint64_t i = 2; i < 52; ++i)
        ping(i);

    // Readers reap themselves asynchronously just after the client
    // sees EOF: poll until the fd count settles back.
    int now = countOpenFds();
    for (int spin = 0; spin < 2000 && now > baseline; ++spin) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        now = countOpenFds();
    }
    EXPECT_LE(now, baseline);

    // And the daemon still accepts fresh connections.
    ping(99);
}

TEST_F(ServiceTest, ClientRecvTimeoutCoversWedgedServer)
{
    // Park the one worker indefinitely: the server never answers.
    std::mutex mu;
    std::condition_variable cv;
    bool release = false;
    ServerOptions opts;
    opts.workers = 1;
    opts.drainMs = 100;
    opts.handlerHook = [&](const Request &) {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return release; });
    };
    auto srv = startServer(std::move(opts));

    Client c = connectTo(*srv);
    c.setRecvTimeout(100);
    Response resp;
    std::string err;
    EXPECT_FALSE(c.call(compileReq("conv2d", 1, {8, 8}), &resp,
                        &err));
    EXPECT_NE(err.find("timed out"), std::string::npos) << err;
    // A timed-out connection is out of sync and therefore dead.
    EXPECT_FALSE(c.connected());

    {
        std::lock_guard<std::mutex> lock(mu);
        release = true;
    }
    cv.notify_all();
    srv->stop();
}

TEST_F(ServiceTest, StopIsIdempotentAndStaleSocketsAreReclaimed)
{
    std::string path;
    {
        auto srv = startServer();
        path = srv->socketPath();
        srv->stop();
        srv->stop(); // second stop is a no-op
    }
    // A dead daemon's socket path binds again (stale unlink).
    Server second(path);
    std::string err;
    ASSERT_TRUE(second.start(&err)) << err;
    Client c;
    ASSERT_TRUE(c.connect(path, &err)) << err;
    Request ping;
    ping.op = "ping";
    ping.id = 1;
    Response resp;
    ASSERT_TRUE(c.call(ping, &resp, &err)) << err;
    EXPECT_TRUE(resp.ok);
    second.stop();

    // start() refuses an over-long path instead of truncating.
    Server bad(std::string(300, 'x'));
    EXPECT_FALSE(bad.start(&err));
    EXPECT_NE(err.find("longer"), std::string::npos) << err;
}

} // namespace
} // namespace service
} // namespace polyfuse
