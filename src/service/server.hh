/**
 * @file
 * The hardened compile service: a long-lived daemon that accepts
 * Requests over a unix-domain socket, compiles/executes them through
 * the same driver::compileKernel path the CLI uses, and answers with
 * typed Responses -- `polyfuse --serve <socket>`.
 *
 * Robustness model (DESIGN.md section 11):
 *
 *  - Admission control: a bounded queue. When the number of admitted
 *    but unfinished requests reaches maxQueueDepth, or their summed
 *    frame bytes exceed maxInflightBytes, new compile requests are
 *    shed immediately with ErrorKind::Overloaded -- the daemon
 *    answers "come back later" in microseconds instead of building
 *    an unbounded backlog.
 *
 *  - Deadlines: a request's deadlineMs covers queue wait + compile +
 *    run. The remaining allowance after the queue wait arms the
 *    per-request support::Budget (so the whole pres/codegen chain
 *    enforces it cooperatively), and the per-request CancelToken is
 *    chained to the server token so shutdown cancels in-flight work.
 *    An expired deadline is ErrorKind::Timeout.
 *
 *  - Retries: only *transient* native-tier failures retry, per
 *    support/retry.hh's policy, then degrade to the bytecode tier.
 *    BudgetExceeded rides the driver's strategy-fallback ladder and
 *    is never retried; FatalError/PanicError are never retried.
 *
 *  - Fault isolation: every per-request exception -- including ones
 *    injected via the `service.handle` failpoint -- becomes a typed
 *    error response on that request's connection; the daemon keeps
 *    serving everyone else. Worker threads never die (ThreadPool
 *    contains escaped exceptions as a second line of defense).
 *
 *  - Graceful drain: stop() (triggered by a `shutdown` request or
 *    the CLI's signal watcher) closes the listener, drains the pool
 *    with a deadline, cancels whatever is still running, answers
 *    abandoned queued requests with ErrorKind::Shutdown (RAII reply
 *    guards fire when the pool destroys their closures), flushes the
 *    tuning store, and unlinks the socket.
 *
 * Hot requests hit the process-wide exec::KernelCache, so repeat
 * compiles of the same (program, options, tier) key skip the whole
 * Presburger/codegen pipeline; responses say so (fromCache).
 */

#ifndef POLYFUSE_SERVICE_SERVER_HH
#define POLYFUSE_SERVICE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.hh"
#include "service/protocol.hh"
#include "support/budget.hh"
#include "support/retry.hh"
#include "support/thread_pool.hh"

namespace polyfuse {

namespace perfmodel {
class TuneDb;
}

namespace service {

/** Tunables of one Server. */
struct ServerOptions
{
    /** Compile worker threads (0: hardware concurrency). */
    unsigned workers = 4;

    /** Admission cap: admitted-but-unfinished compile requests. */
    size_t maxQueueDepth = 16;

    /** Admission cap: summed request-frame bytes in flight. */
    uint64_t maxInflightBytes = 8ull * 1024 * 1024;

    /** Per-frame payload cap (both directions). */
    uint32_t maxFrameBytes = kMaxFrameBytes;

    /** Drain deadline of stop(), milliseconds (<= 0: forever). */
    double drainMs = 2000;

    /** Backoff schedule for transient native-tier failures. */
    RetryPolicy nativeRetry;

    /** Tuning store to flush on shutdown (optional, not owned). */
    perfmodel::TuneDb *tuneDb = nullptr;

    /** Test hook: runs at the start of every compile handler (on
     *  the worker thread, after the queue wait is measured). The
     *  overload tests park workers here deterministically. */
    std::function<void(const Request &)> handlerHook;
};

/** The daemon. One instance per socket; start() then run()/stop(). */
class Server
{
  public:
    explicit Server(std::string socket_path, ServerOptions opts = {});

    /** stop()s if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + spawn the accept thread. @return false with
     *  a diagnostic when the socket cannot be created. */
    bool start(std::string *error);

    /** Block until a `shutdown` request arrives (or @p ms elapses,
     *  when ms > 0). @return true once shutdown was requested. */
    bool waitForShutdownRequest(double ms = 0);

    /** Graceful drain (see file comment). Idempotent, thread-safe;
     *  callable from any thread except a pool worker. */
    void stop();

    /** start() + serve until a shutdown request + stop(). The
     *  optional @p poll_ms hook returns true to trigger shutdown
     *  (the CLI's signal watcher). */
    int run(const std::function<bool()> &interrupted = nullptr,
            double poll_ms = 200);

    const std::string &socketPath() const { return path_; }

    /** Aggregate counters (also served by the "stats" op). */
    ServerStats stats() const;

  private:
    struct Conn;
    struct ReplyGuard;

    void acceptLoop();
    void readerLoop(std::shared_ptr<Conn> conn);
    void dispatch(const std::shared_ptr<Conn> &conn,
                  const std::string &payload);
    void handleCompile(const Request &req,
                       const std::shared_ptr<ReplyGuard> &guard,
                       double queue_ms);
    void sendResponse(const std::shared_ptr<Conn> &conn,
                      const Response &resp);
    void sendError(const std::shared_ptr<Conn> &conn, uint64_t id,
                   ErrorKind kind, const std::string &message);

    std::string path_;
    ServerOptions opts_;
    int listenFd_ = -1;
    std::unique_ptr<ThreadPool> pool_;
    std::thread acceptThread_;
    CancelToken cancel_; ///< parent of every request token

    mutable std::mutex mu_;
    std::condition_variable shutdownCv_;
    bool started_ = false;
    bool stopped_ = false;
    std::atomic<bool> accepting_{false};
    std::atomic<bool> shutdownRequested_{false};

    /** Live connections only: a reader erases its Conn (and counts
     *  itself out of activeReaders_) on exit, so connection churn
     *  never accumulates fds or thread handles. Reader threads are
     *  detached; stop() waits on readersCv_ for the count to reach
     *  zero before tearing anything down they could touch. */
    std::vector<std::shared_ptr<Conn>> conns_;
    size_t activeReaders_ = 0; ///< guarded by mu_
    std::condition_variable readersCv_;

    std::atomic<size_t> inflight_{0};       ///< admitted, unfinished
    std::atomic<uint64_t> inflightBytes_{0}; ///< their frame bytes

    struct Counters
    {
        std::atomic<uint64_t> accepted{0};
        std::atomic<uint64_t> completed{0};
        std::atomic<uint64_t> shed{0};
        std::atomic<uint64_t> retries{0};
        std::atomic<uint64_t> errors{0};
        std::atomic<uint64_t> timeouts{0};
        std::atomic<uint64_t> cacheHits{0};
    } counters_;
};

/**
 * FNV hash over the bit patterns of every tensor buffer (in tensor
 * order), as a 16-hex-digit string -- the bit-identity witness
 * responses carry so clients and tests can compare a service run
 * against a direct driver::compileKernel run without shipping the
 * buffers themselves.
 */
std::string hashBuffers(const exec::Buffers &buffers);

/**
 * The canonical input fill of the service (and the CLI): equake gets
 * workloads::initEquakeInputs with seed 11, everything else
 * fillPattern(t, 1000 + t) on the non-Temp tensors. Exposed so tests
 * and benchmarks reproduce bit-identical direct runs.
 */
void fillServiceInputs(const ir::Program &program,
                       exec::Buffers &buffers);

} // namespace service
} // namespace polyfuse

#endif // POLYFUSE_SERVICE_SERVER_HH
