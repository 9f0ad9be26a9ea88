#include "service/protocol.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sys/socket.h>
#include <unistd.h>

#include "support/json.hh"

namespace polyfuse {
namespace service {

namespace {

/** recv() exactly @p n bytes (loops over partials/EINTR).
 *  @return n, 0 on clean EOF before any byte, -1 on error or a
 *  mid-buffer EOF. */
ssize_t
recvAll(int fd, void *buf, size_t n, std::string *error)
{
    size_t got = 0;
    while (got < n) {
        ssize_t r =
            ::recv(fd, static_cast<char *>(buf) + got, n - got, 0);
        if (r > 0) {
            got += size_t(r);
            continue;
        }
        if (r == 0) {
            if (got == 0)
                return 0;
            if (error)
                *error = "truncated frame (peer closed mid-frame)";
            return -1;
        }
        if (errno == EINTR)
            continue;
        if (error)
            *error = std::string("recv: ") + std::strerror(errno);
        return -1;
    }
    return ssize_t(n);
}

} // namespace

FrameStatus
readFrame(int fd, std::string *payload, std::string *error,
          uint32_t max_bytes)
{
    unsigned char hdr[4];
    ssize_t r = recvAll(fd, hdr, sizeof(hdr), error);
    if (r == 0)
        return FrameStatus::Eof;
    if (r < 0)
        return FrameStatus::Error;
    uint32_t len = uint32_t(hdr[0]) | (uint32_t(hdr[1]) << 8) |
                   (uint32_t(hdr[2]) << 16) |
                   (uint32_t(hdr[3]) << 24);
    if (len > max_bytes) {
        if (error)
            *error = "frame of " + std::to_string(len) +
                     " bytes exceeds the " +
                     std::to_string(max_bytes) + "-byte cap";
        return FrameStatus::Oversized;
    }
    payload->assign(len, '\0');
    if (len > 0) {
        ssize_t pr = recvAll(fd, &(*payload)[0], len, error);
        if (pr <= 0) {
            // recvAll reports 0 (clean EOF before any payload byte)
            // without a diagnostic; past a header that is still a
            // truncated frame, not a clean end of stream.
            if (pr == 0 && error)
                *error = "truncated frame (peer closed after frame "
                         "header)";
            return FrameStatus::Error;
        }
    }
    return FrameStatus::Ok;
}

bool
writeFrame(int fd, const std::string &payload, std::string *error)
{
    if (payload.size() > UINT32_MAX) {
        if (error)
            *error = "payload too large to frame";
        return false;
    }
    uint32_t len = uint32_t(payload.size());
    unsigned char hdr[4] = {
        (unsigned char)(len & 0xff),
        (unsigned char)((len >> 8) & 0xff),
        (unsigned char)((len >> 16) & 0xff),
        (unsigned char)((len >> 24) & 0xff),
    };
    std::string buf(reinterpret_cast<char *>(hdr), sizeof(hdr));
    buf += payload;
    size_t sent = 0;
    while (sent < buf.size()) {
        ssize_t w = ::send(fd, buf.data() + sent, buf.size() - sent,
                           MSG_NOSIGNAL);
        if (w > 0) {
            sent += size_t(w);
            continue;
        }
        if (w < 0 && errno == EINTR)
            continue;
        if (error)
            *error = std::string("send: ") + std::strerror(errno);
        return false;
    }
    return true;
}

const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
    case ErrorKind::None:       return "";
    case ErrorKind::BadRequest: return "badrequest";
    case ErrorKind::Overloaded: return "overloaded";
    case ErrorKind::Timeout:    return "timeout";
    case ErrorKind::Cancelled:  return "cancelled";
    case ErrorKind::Fatal:      return "fatal";
    case ErrorKind::Panic:      return "panic";
    case ErrorKind::Internal:   return "internal";
    case ErrorKind::Oversized:  return "oversized";
    case ErrorKind::Shutdown:   return "shutdown";
    }
    return "";
}

bool
parseErrorKind(const std::string &name, ErrorKind *out)
{
    static const ErrorKind kinds[] = {
        ErrorKind::BadRequest, ErrorKind::Overloaded,
        ErrorKind::Timeout,    ErrorKind::Cancelled,
        ErrorKind::Fatal,      ErrorKind::Panic,
        ErrorKind::Internal,   ErrorKind::Oversized,
        ErrorKind::Shutdown,
    };
    for (ErrorKind k : kinds) {
        if (name == errorKindName(k)) {
            *out = k;
            return true;
        }
    }
    return false;
}

namespace {

/** A non-negative integer up to 2^53, where a double is exact. */
bool
asUint(const json::Value &v, uint64_t *out)
{
    if (!v.isNumber() || v.number < 0 ||
        v.number != std::floor(v.number) ||
        v.number > json::kMaxExactInt)
        return false;
    *out = uint64_t(v.number);
    return true;
}

bool
asTiles(const json::Value &v, std::vector<int64_t> *out)
{
    if (!v.isArray())
        return false;
    out->clear();
    for (const auto &e : v.array) {
        uint64_t t;
        if (!asUint(e, &t) || t == 0 || t > (1u << 30))
            return false;
        out->push_back(int64_t(t));
    }
    return true;
}

/** The "server" object's counters, in wire order. */
const std::pair<const char *, uint64_t ServerStats::*>
    kServerCounters[] = {
        {"accepted", &ServerStats::accepted},
        {"completed", &ServerStats::completed},
        {"shed", &ServerStats::shed},
        {"retries", &ServerStats::retries},
        {"errors", &ServerStats::errors},
        {"timeouts", &ServerStats::timeouts},
        {"cacheHits", &ServerStats::cacheHits},
};

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

} // namespace

std::string
encodeRequest(const Request &req)
{
    json::Value out;
    out.set("op", req.op);
    out.set("id", req.id);
    out.set("workload", req.workload);
    if (req.rows > 0)
        out.set("rows", req.rows);
    if (req.cols > 0)
        out.set("cols", req.cols);
    out.set("strategy", req.strategy);
    if (req.tilesGiven)
        out.set("tiles", req.tiles);
    if (!req.innerTiles.empty())
        out.set("innerTiles", req.innerTiles);
    out.set("tier", req.tier);
    out.set("run", req.run);
    if (req.deadlineMs > 0)
        out.set("deadlineMs", req.deadlineMs);
    out.set("threads", req.threads);
    return json::dump(out);
}

bool
decodeRequest(const std::string &payload, Request *out,
              std::string *error)
{
    json::Value root;
    if (!json::parse(payload, &root, error))
        return false;
    if (!root.isObject())
        return fail(error, "request must be a JSON object");

    Request req;
    for (const auto &kv : root.object) {
        const std::string &key = kv.first;
        const json::Value &v = kv.second;
        uint64_t u;
        if (key == "op") {
            if (!v.isString())
                return fail(error, "op must be a string");
            req.op = v.string;
        } else if (key == "id") {
            if (!asUint(v, &req.id))
                return fail(error, "id must be a non-negative "
                                   "integer");
        } else if (key == "workload") {
            if (!v.isString())
                return fail(error, "workload must be a string");
            req.workload = v.string;
        } else if (key == "rows") {
            if (!asUint(v, &u) || u > (1u << 24))
                return fail(error, "rows out of range");
            req.rows = int64_t(u);
        } else if (key == "cols") {
            if (!asUint(v, &u) || u > (1u << 24))
                return fail(error, "cols out of range");
            req.cols = int64_t(u);
        } else if (key == "strategy") {
            if (!v.isString())
                return fail(error, "strategy must be a string");
            req.strategy = v.string;
        } else if (key == "tiles") {
            if (!asTiles(v, &req.tiles))
                return fail(error, "tiles must be an array of "
                                   "positive integers");
            req.tilesGiven = true;
        } else if (key == "innerTiles") {
            if (!asTiles(v, &req.innerTiles))
                return fail(error, "innerTiles must be an array of "
                                   "positive integers");
        } else if (key == "tier") {
            if (!v.isString())
                return fail(error, "tier must be a string");
            req.tier = v.string;
        } else if (key == "run") {
            if (!v.isBool())
                return fail(error, "run must be a boolean");
            req.run = v.boolean;
        } else if (key == "deadlineMs") {
            if (!v.isNumber() || v.number < 0 || v.number > 1e9)
                return fail(error, "deadlineMs out of range");
            req.deadlineMs = v.number;
        } else if (key == "threads") {
            if (!asUint(v, &u) || u > kMaxThreads)
                return fail(error, "threads out of range");
            req.threads = unsigned(u);
        } else {
            return fail(error, "unknown request field '" + key +
                                   "'");
        }
    }
    if (req.op != "compile" && req.op != "ping" &&
        req.op != "stats" && req.op != "shutdown")
        return fail(error, "unknown op '" + req.op + "'");
    if (req.op == "compile" && req.workload.empty())
        return fail(error, "compile needs a workload");
    *out = req;
    return true;
}

std::string
encodeResponse(const Response &resp)
{
    json::Value out;
    out.set("id", resp.id);
    out.set("ok", resp.ok);
    if (!resp.ok) {
        json::Value err;
        err.set("kind", errorKindName(resp.kind));
        err.set("message", resp.message);
        out.set("error", std::move(err));
    } else {
        json::Value r;
        r.set("fingerprint", resp.fingerprint);
        r.set("requestedTier", resp.requestedTier);
        r.set("tier", resp.tier);
        r.set("strategy", resp.strategy);
        r.set("requestedStrategy", resp.requestedStrategy);
        r.set("fallbackTrail", resp.fallbackTrail);
        r.set("tierFallbackReason", resp.tierFallbackReason);
        r.set("fromCache", resp.fromCache);
        r.set("downgraded", resp.downgraded);
        r.set("compileMs", resp.compileMs);
        r.set("runMs", resp.runMs);
        r.set("queueMs", resp.queueMs);
        r.set("retries", resp.retries);
        r.set("bufferHash", resp.bufferHash);
        r.set("backend", resp.backend);
        out.set("result", std::move(r));
    }
    if (resp.server.present) {
        json::Value server;
        for (const auto &[name, field] : kServerCounters)
            server.set(name, resp.server.*field);
        out.set("server", std::move(server));
    }
    return json::dump(out);
}

namespace {

bool
decodeResult(const json::Value &v, Response *resp,
             std::string *error)
{
    if (!v.isObject())
        return fail(error, "result must be an object");
    for (const auto &kv : v.object) {
        const std::string &key = kv.first;
        const json::Value &f = kv.second;
        uint64_t u;
        if (key == "fingerprint" || key == "requestedTier" ||
            key == "tier" || key == "strategy" ||
            key == "requestedStrategy" ||
            key == "tierFallbackReason" || key == "bufferHash" ||
            key == "backend") {
            if (!f.isString())
                return fail(error, key + " must be a string");
            std::string Response::*member =
                key == "fingerprint"    ? &Response::fingerprint
                : key == "requestedTier" ? &Response::requestedTier
                : key == "tier"          ? &Response::tier
                : key == "strategy"      ? &Response::strategy
                : key == "requestedStrategy"
                    ? &Response::requestedStrategy
                : key == "tierFallbackReason"
                    ? &Response::tierFallbackReason
                : key == "bufferHash" ? &Response::bufferHash
                                      : &Response::backend;
            resp->*member = f.string;
        } else if (key == "fallbackTrail") {
            if (!f.isArray())
                return fail(error, "fallbackTrail must be an array");
            for (const auto &e : f.array) {
                if (!e.isString())
                    return fail(error,
                                "fallbackTrail entries must be "
                                "strings");
                resp->fallbackTrail.push_back(e.string);
            }
        } else if (key == "fromCache" || key == "downgraded") {
            if (!f.isBool())
                return fail(error, key + " must be a boolean");
            (key == "fromCache" ? resp->fromCache
                                : resp->downgraded) = f.boolean;
        } else if (key == "compileMs" || key == "runMs" ||
                   key == "queueMs") {
            if (!f.isNumber() || f.number < 0)
                return fail(error, key + " out of range");
            (key == "compileMs"  ? resp->compileMs
             : key == "runMs"    ? resp->runMs
                                 : resp->queueMs) = f.number;
        } else if (key == "retries") {
            if (!asUint(f, &u) || u > 1000)
                return fail(error, "retries out of range");
            resp->retries = unsigned(u);
        } else {
            return fail(error,
                        "unknown result field '" + key + "'");
        }
    }
    return true;
}

bool
decodeServer(const json::Value &v, ServerStats *s,
             std::string *error)
{
    if (!v.isObject())
        return fail(error, "server must be an object");
    s->present = true;
    for (const auto &kv : v.object) {
        uint64_t u;
        if (!asUint(kv.second, &u))
            return fail(error, "server counters must be "
                               "non-negative integers");
        const auto *c = std::find_if(
            std::begin(kServerCounters), std::end(kServerCounters),
            [&](const auto &c) { return kv.first == c.first; });
        if (c == std::end(kServerCounters))
            return fail(error, "unknown server counter '" +
                                   kv.first + "'");
        s->*c->second = u;
    }
    return true;
}

} // namespace

bool
decodeResponse(const std::string &payload, Response *out,
               std::string *error)
{
    json::Value root;
    if (!json::parse(payload, &root, error))
        return false;
    if (!root.isObject())
        return fail(error, "response must be a JSON object");

    Response resp;
    bool saw_ok = false;
    for (const auto &kv : root.object) {
        const std::string &key = kv.first;
        const json::Value &v = kv.second;
        if (key == "id") {
            if (!asUint(v, &resp.id))
                return fail(error, "id must be a non-negative "
                                   "integer");
        } else if (key == "ok") {
            if (!v.isBool())
                return fail(error, "ok must be a boolean");
            resp.ok = v.boolean;
            saw_ok = true;
        } else if (key == "error") {
            if (!v.isObject())
                return fail(error, "error must be an object");
            const json::Value *kind = v.get("kind");
            const json::Value *msg = v.get("message");
            if (!kind || !kind->isString() || !msg ||
                !msg->isString())
                return fail(error, "error needs string kind and "
                                   "message");
            if (!parseErrorKind(kind->string, &resp.kind))
                return fail(error, "unknown error kind '" +
                                       kind->string + "'");
            resp.message = msg->string;
        } else if (key == "result") {
            if (!decodeResult(v, &resp, error))
                return false;
        } else if (key == "server") {
            if (!decodeServer(v, &resp.server, error))
                return false;
        } else {
            return fail(error, "unknown response field '" + key +
                                   "'");
        }
    }
    if (!saw_ok)
        return fail(error, "response missing 'ok'");
    if (!resp.ok && resp.kind == ErrorKind::None)
        return fail(error, "error response missing 'error'");
    *out = resp;
    return true;
}

} // namespace service
} // namespace polyfuse
