/**
 * @file
 * Wire protocol of the compile service: length-prefixed JSON frames
 * over a unix-domain stream socket, plus the typed request/response
 * schema both ends validate field by field.
 *
 * Framing is a 4-byte little-endian payload length followed by that
 * many bytes of UTF-8 JSON. The length is bounded (kMaxFrameBytes by
 * default): a peer announcing a larger frame gets a typed
 * `oversized` error and the connection is closed, because the stream
 * position can no longer be trusted. Truncated frames (EOF mid-body)
 * and short lengths surface as FrameStatus::Error.
 *
 * The payload schema is deliberately flat. Requests:
 *
 *   {"op": "compile"|"ping"|"stats"|"shutdown", "id": N,
 *    "workload": "...", "rows": N, "cols": N, "strategy": "...",
 *    "tiles": [..], "innerTiles": [..], "tier": "...",
 *    "run": true, "deadlineMs": N, "threads": N}
 *
 * "threads" is the run's one parallel knob (0..kMaxThreads): 1, the
 * default, runs sequentially, N > 1 runs a tile team of N, 0 one per
 * hardware thread of the server.
 *
 * Responses either carry a "result" object (fingerprint, effective
 * tier/strategy, fallback trail, cache hit, retry count, queue wait,
 * run time, buffer hash) or an "error" object with a typed kind --
 * the error taxonomy of DESIGN.md section 11 -- so clients can
 * distinguish "your request is wrong" (badrequest) from "come back
 * later" (overloaded) from "it cost too much" (timeout) without
 * parsing prose. Unknown request fields are rejected: the protocol
 * is ours on both ends, so unknown shapes mean a confused or hostile
 * peer, and refusing beats guessing (the TuneDb reader's rule).
 */

#ifndef POLYFUSE_SERVICE_PROTOCOL_HH
#define POLYFUSE_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace polyfuse {
namespace service {

/** Ceiling on one frame's payload bytes (requests and responses). */
constexpr uint32_t kMaxFrameBytes = 1u << 20;

/** Ceiling on a request's "threads": each run of that many starts a
 *  team of that many workers. */
constexpr unsigned kMaxThreads = 64;

/** What readFrame observed on the stream. */
enum class FrameStatus
{
    Ok,        ///< one complete frame in *payload
    Eof,       ///< clean end of stream at a frame boundary
    Error,     ///< truncated frame or socket error (see *error)
    Oversized, ///< announced length exceeds the cap; stream is dead
};

/**
 * Read one frame from @p fd into @p payload. Blocks; loops over
 * partial reads and EINTR. A length above @p max_bytes returns
 * Oversized without consuming the body.
 */
FrameStatus readFrame(int fd, std::string *payload,
                      std::string *error,
                      uint32_t max_bytes = kMaxFrameBytes);

/** Write one frame (length + @p payload) to @p fd. Loops over
 *  partial writes; SIGPIPE is suppressed (a dead peer is a false
 *  return, not a process kill). */
bool writeFrame(int fd, const std::string &payload,
                std::string *error);

/** One request, decoded and validated. */
struct Request
{
    std::string op = "compile"; ///< compile | ping | stats | shutdown
    uint64_t id = 0; ///< echoed verbatim; 0..2^53, else badrequest

    // compile fields (ignored by the other ops)
    std::string workload;
    int64_t rows = 0; ///< 0: the workload's default
    int64_t cols = 0; ///< 0: the workload's default
    std::string strategy = "ours";
    std::vector<int64_t> tiles; ///< tilesGiven=false: default tiles
    bool tilesGiven = false;
    std::vector<int64_t> innerTiles;
    std::string tier = "bytecode"; ///< interp | bytecode | native
    bool run = true;       ///< execute after compiling
    double deadlineMs = 0; ///< whole-request deadline; 0 = none
    unsigned threads = 1;  ///< run team size (exec::resolveThreads)
};

/** The typed error taxonomy of the service. */
enum class ErrorKind
{
    None,       ///< response is ok
    BadRequest, ///< malformed/unknown request (client's fault)
    Overloaded, ///< admission control shed the request; retry later
    Timeout,    ///< the request's deadline expired
    Cancelled,  ///< the server cancelled it (shutdown in flight)
    Fatal,      ///< FatalError from the compiler (user-level)
    Panic,      ///< PanicError from the compiler (library bug)
    Internal,   ///< any other escaped exception
    Oversized,  ///< frame exceeded the cap; connection closes
    Shutdown,   ///< request abandoned: the server is shutting down
};

/** Wire spelling of @p kind ("" for None). */
const char *errorKindName(ErrorKind kind);

/** Parse an errorKindName spelling. @return false when unknown. */
bool parseErrorKind(const std::string &name, ErrorKind *out);

/** Aggregate server counters (the "stats" op). */
struct ServerStats
{
    bool present = false; ///< response carries a "server" object
    uint64_t accepted = 0;  ///< compile requests admitted
    uint64_t completed = 0; ///< compile responses sent (ok or error)
    uint64_t shed = 0;      ///< rejected by admission control
    uint64_t retries = 0;   ///< native-tier retry attempts
    uint64_t errors = 0;    ///< typed error responses (non-shed)
    uint64_t timeouts = 0;  ///< deadline-expired responses
    uint64_t cacheHits = 0; ///< artifacts served from KernelCache
};

/** One response: either a result or a typed error. */
struct Response
{
    uint64_t id = 0;
    bool ok = false;

    // error (ok == false)
    ErrorKind kind = ErrorKind::None;
    std::string message;

    // result (ok == true); compile ops fill everything, ping/stats/
    // shutdown leave the compile fields defaulted
    std::string fingerprint;
    std::string requestedTier;
    std::string tier;     ///< tier that actually ran
    std::string strategy; ///< effective strategy
    std::string requestedStrategy;
    std::vector<std::string> fallbackTrail;
    std::string tierFallbackReason; ///< why native degraded (if it did)
    bool fromCache = false;
    bool downgraded = false;
    double compileMs = 0;
    double runMs = 0;
    /** Native build (emit, `cc`, `dlopen`) this request paid, its
     *  retries summed; 0 on a warm kernel or another tier. */
    double buildMs = 0;
    double queueMs = 0;  ///< admission-to-start wait
    unsigned retries = 0; ///< native-tier retries this request
    std::string bufferHash; ///< 16-hex FNV of every output buffer
    std::string backend; ///< effective "tier[+parN]" label

    ServerStats server; ///< filled for the "stats" op
};

/** Encode @p req as one JSON payload (framing is separate). */
std::string encodeRequest(const Request &req);

/**
 * Parse and validate one request payload. @return false with a
 * diagnostic on malformed JSON, unknown ops/keys, or out-of-range
 * values; the server answers those with ErrorKind::BadRequest.
 */
bool decodeRequest(const std::string &payload, Request *out,
                   std::string *error);

/** Encode @p resp as one JSON payload. */
std::string encodeResponse(const Response &resp);

/** Parse and validate one response payload (client side). */
bool decodeResponse(const std::string &payload, Response *out,
                    std::string *error);

} // namespace service
} // namespace polyfuse

#endif // POLYFUSE_SERVICE_PROTOCOL_HH
