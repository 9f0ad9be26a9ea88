#include "service/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "driver/artifact.hh"
#include "driver/compile_context.hh"
#include "driver/pipeline.hh"
#include "driver/registry.hh"
#include "exec/engine.hh"
#include "exec/kernel_cache.hh"
#include "perfmodel/tune_db.hh"
#include "pres/row_hash.hh"
#include "support/failpoint.hh"
#include "support/logging.hh"
#include "workloads/equake.hh"

namespace polyfuse {
namespace service {

namespace {

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

std::string
hashBuffers(const exec::Buffers &buffers)
{
    uint64_t h = pres::kFnvOffset;
    for (size_t t = 0; t < buffers.numTensors(); ++t) {
        const std::vector<double> &d = buffers.data(int(t));
        h = pres::fnvMix(h, uint64_t(d.size()));
        for (double x : d) {
            uint64_t bits;
            std::memcpy(&bits, &x, sizeof(bits));
            h = pres::fnvMix(h, bits);
        }
    }
    h = pres::hashFinalize(h);
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  (unsigned long long)h);
    return std::string(buf);
}

void
fillServiceInputs(const ir::Program &program, exec::Buffers &buffers)
{
    if (program.name() == "equake") {
        workloads::initEquakeInputs(program, buffers, 11);
        return;
    }
    for (size_t t = 0; t < program.tensors().size(); ++t)
        if (program.tensor(t).kind != ir::TensorKind::Temp)
            buffers.fillPattern(t, 1000 + t);
}

/** One accepted connection; the fd closes at the last reference. */
struct Server::Conn
{
    int fd = -1;
    std::mutex writeMu; ///< responses from any thread serialize here

    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

/**
 * RAII reply obligation of one admitted compile request. Exactly one
 * response leaves per admission: the handler replies through it, and
 * if the closure is destroyed *unrun* (pool drain during shutdown)
 * the destructor answers with ErrorKind::Shutdown -- a client never
 * hangs on an abandoned request. Also releases the admission
 * accounting (inflight count + bytes) whichever way it ends.
 */
struct Server::ReplyGuard
{
    Server *srv;
    std::shared_ptr<Conn> conn;
    uint64_t id;
    uint64_t bytes;
    std::chrono::steady_clock::time_point admitted;
    bool answered = false;

    ReplyGuard(Server *s, std::shared_ptr<Conn> c, uint64_t req_id,
               uint64_t frame_bytes)
        : srv(s), conn(std::move(c)), id(req_id),
          bytes(frame_bytes),
          admitted(std::chrono::steady_clock::now())
    {
    }

    void
    reply(const Response &resp)
    {
        answered = true;
        srv->sendResponse(conn, resp);
        ++srv->counters_.completed;
    }

    ~ReplyGuard()
    {
        if (!answered) {
            Response resp;
            resp.id = id;
            resp.ok = false;
            resp.kind = ErrorKind::Shutdown;
            resp.message =
                "server shut down before the request ran";
            srv->sendResponse(conn, resp);
            ++srv->counters_.errors;
            ++srv->counters_.completed;
        }
        --srv->inflight_;
        srv->inflightBytes_ -= bytes;
    }
};

Server::Server(std::string socket_path, ServerOptions opts)
    : path_(std::move(socket_path)), opts_(std::move(opts))
{
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *error)
{
    sockaddr_un addr;
    if (path_.empty() || path_.size() >= sizeof(addr.sun_path)) {
        if (error)
            *error = "socket path empty or longer than " +
                     std::to_string(sizeof(addr.sun_path) - 1) +
                     " bytes";
        return false;
    }
    // A stale socket file from a crashed daemon would fail the bind;
    // the path is ours by contract, so reclaim it.
    ::unlink(path_.c_str());

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0) {
        if (error)
            *error = std::string("socket: ") + std::strerror(errno);
        return false;
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listenFd_, 64) != 0) {
        if (error)
            *error = std::string("bind/listen ") + path_ + ": " +
                     std::strerror(errno);
        ::close(listenFd_);
        listenFd_ = -1;
        return false;
    }

    pool_ = std::make_unique<ThreadPool>(opts_.workers);
    {
        std::lock_guard<std::mutex> lock(mu_);
        started_ = true;
        stopped_ = false;
    }
    accepting_.store(true);
    acceptThread_ = std::thread(&Server::acceptLoop, this);
    return true;
}

void
Server::acceptLoop()
{
    while (accepting_.load()) {
        pollfd p;
        p.fd = listenFd_;
        p.events = POLLIN;
        p.revents = 0;
        int r = ::poll(&p, 1, 200);
        if (r <= 0)
            continue; // timeout or EINTR; re-check accepting_
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR || errno == EAGAIN ||
                errno == ECONNABORTED)
                continue;
            if (errno == EMFILE || errno == ENFILE ||
                errno == ENOMEM || errno == EPROTO) {
                // Resource exhaustion is a load condition, not a
                // dead listener: keep the accept thread alive so
                // the daemon recovers when pressure subsides.
                warn(std::string("service: accept: ") +
                     std::strerror(errno) + " (transient; retrying)");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
                continue;
            }
            break; // EBADF/EINVAL etc.: listener closed by stop()
        }
        auto conn = std::make_shared<Conn>();
        conn->fd = fd;
        std::lock_guard<std::mutex> lock(mu_);
        if (!accepting_.load())
            break; // conn closes via its destructor
        conns_.push_back(conn);
        ++activeReaders_;
        // Detached: the reader reaps itself on exit (see
        // readerLoop); stop() waits for activeReaders_ to hit zero.
        std::thread(&Server::readerLoop, this, conn).detach();
    }
}

void
Server::readerLoop(std::shared_ptr<Conn> conn)
{
    while (true) {
        std::string payload, err;
        FrameStatus st = readFrame(conn->fd, &payload, &err,
                                   opts_.maxFrameBytes);
        if (st == FrameStatus::Ok) {
            dispatch(conn, payload);
            continue;
        }
        if (st == FrameStatus::Oversized) {
            // The stream position is unrecoverable past an oversized
            // announcement: answer, then hang up.
            ++counters_.errors;
            sendError(conn, 0, ErrorKind::Oversized, err);
        }
        break; // Eof / Error / Oversized all end the connection
    }
    ::shutdown(conn->fd, SHUT_RDWR);

    // Reap this connection now instead of at stop(): under
    // connection churn the daemon must not accumulate open fds or
    // dead thread handles for its lifetime. The fd itself closes
    // when the last Conn reference drops (in-flight ReplyGuards may
    // still hold one). The notify happens under mu_ so stop() cannot
    // observe a zero count and destroy the Server while this thread
    // still touches it.
    std::lock_guard<std::mutex> lock(mu_);
    conns_.erase(std::remove(conns_.begin(), conns_.end(), conn),
                 conns_.end());
    --activeReaders_;
    readersCv_.notify_all();
}

void
Server::dispatch(const std::shared_ptr<Conn> &conn,
                 const std::string &payload)
{
    Request req;
    std::string err;
    if (!decodeRequest(payload, &req, &err)) {
        ++counters_.errors;
        sendError(conn, 0, ErrorKind::BadRequest, err);
        return;
    }

    if (req.op == "ping") {
        Response resp;
        resp.id = req.id;
        resp.ok = true;
        sendResponse(conn, resp);
        return;
    }
    if (req.op == "stats") {
        Response resp;
        resp.id = req.id;
        resp.ok = true;
        resp.server = stats();
        sendResponse(conn, resp);
        return;
    }
    if (req.op == "shutdown") {
        Response resp;
        resp.id = req.id;
        resp.ok = true;
        sendResponse(conn, resp);
        // Publish under mu_: waitForShutdownRequest() evaluates its
        // predicate under the same mutex, so a store+notify outside
        // it could land between the predicate check and the block,
        // losing the wakeup forever in the ms<=0 blocking mode.
        {
            std::lock_guard<std::mutex> lock(mu_);
            shutdownRequested_.store(true);
        }
        shutdownCv_.notify_all();
        return;
    }

    // op == "compile": admission control. The strict check-then-
    // rollback keeps the cap exact under concurrent readers.
    uint64_t bytes = payload.size();
    size_t depth = inflight_.fetch_add(1);
    uint64_t inflight_bytes = inflightBytes_.fetch_add(bytes);
    if (depth >= opts_.maxQueueDepth ||
        inflight_bytes + bytes > opts_.maxInflightBytes) {
        --inflight_;
        inflightBytes_ -= bytes;
        ++counters_.shed;
        sendError(conn, req.id, ErrorKind::Overloaded,
                  depth >= opts_.maxQueueDepth
                      ? "queue depth cap reached; retry later"
                      : "in-flight byte cap reached; retry later");
        return;
    }
    ++counters_.accepted;

    auto guard =
        std::make_shared<ReplyGuard>(this, conn, req.id, bytes);
    // A rejected submit (pool draining) destroys the closure here;
    // the guard then answers ErrorKind::Shutdown when this frame's
    // last reference drops at the end of dispatch.
    pool_->submit([this, req, guard] {
        handleCompile(req, guard, msSince(guard->admitted));
    });
}

void
Server::handleCompile(const Request &req,
                      const std::shared_ptr<ReplyGuard> &guard,
                      double queue_ms)
{
    Response resp;
    resp.id = req.id;
    resp.queueMs = queue_ms;

    auto failWith = [&](ErrorKind kind, const std::string &message) {
        resp.ok = false;
        resp.kind = kind;
        resp.message = message;
        ++counters_.errors;
        if (kind == ErrorKind::Timeout)
            ++counters_.timeouts;
        guard->reply(resp);
    };

    try {
        if (opts_.handlerHook)
            opts_.handlerHook(req);
        failpoints::hit("service.handle");

        double remaining = 0;
        if (req.deadlineMs > 0) {
            remaining = req.deadlineMs - queue_ms;
            if (remaining <= 0) {
                failWith(ErrorKind::Timeout,
                         "deadline expired after " +
                             std::to_string(queue_ms) +
                             " ms in the queue");
                return;
            }
        }

        const driver::WorkloadSpec *spec =
            driver::findWorkload(req.workload);
        if (!spec) {
            failWith(ErrorKind::BadRequest,
                     "unknown workload '" + req.workload + "'");
            return;
        }
        driver::PipelineOptions popts;
        if (!driver::parseStrategy(req.strategy, popts.strategy)) {
            failWith(ErrorKind::BadRequest,
                     "unknown strategy '" + req.strategy + "'");
            return;
        }
        exec::Tier tier;
        if (!exec::parseTier(req.tier, &tier)) {
            failWith(ErrorKind::BadRequest,
                     "unknown tier '" + req.tier + "'");
            return;
        }
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
        if (remaining > 0)
            ctx.budget.wallMs = remaining;
        ctx.cancel.chainTo(&cancel_);

        driver::ArtifactOptions aopts;
        aopts.tier = tier;
        aopts.cache = &exec::KernelCache::process();

        driver::KernelArtifact artifact =
            driver::compileKernel(pipeline, program, ctx, aopts);
        if (artifact.fromCache)
            ++counters_.cacheHits;

        // The deadline is hard: the budget trip may have been
        // absorbed by the strategy-fallback ladder (a *downgraded*
        // artifact is still a success), but a client past its
        // deadline has already given up -- answer Timeout instead
        // of running work nobody is waiting for.
        if (req.deadlineMs > 0 &&
            msSince(guard->admitted) >= req.deadlineMs) {
            failWith(ErrorKind::Timeout,
                     "deadline of " +
                         std::to_string(req.deadlineMs) +
                         " ms expired during compile");
            return;
        }

        resp.ok = true;
        resp.fingerprint = artifact.fingerprint.hex();
        resp.requestedTier = exec::tierName(tier);
        resp.strategy =
            driver::strategyName(artifact.effectiveStrategy);
        resp.requestedStrategy =
            driver::strategyName(artifact.requestedStrategy);
        resp.fallbackTrail = artifact.fallbackTrail;
        resp.fromCache = artifact.fromCache;
        resp.downgraded = artifact.downgraded();
        resp.compileMs = artifact.compileMs();

        // Native tier: retry *transient* compile/load failures of
        // the kernel the run will use (the sequential one, or the
        // tile team of req.threads) with backoff, then degrade to
        // bytecode. Permanent failures degrade immediately (see
        // support/retry.hh's table).
        exec::Tier run_tier = tier;
        unsigned retries = 0;
        if (tier == exec::Tier::Native) {
            const exec::NativeOptions nopts =
                exec::nativeTeam(req.threads);
            std::string reason;
            bool transient = false;
            const exec::NativeKernel *nk = artifact.image->ensureNative(
                nopts, &reason, &transient);
            while (!nk && transient &&
                   opts_.nativeRetry.shouldRetry(retries)) {
                opts_.nativeRetry.backoff(retries);
                ++retries;
                ++counters_.retries;
                transient = false;
                nk = artifact.image->ensureNative(nopts, &reason,
                                                  &transient);
            }
            if (!nk) {
                run_tier = exec::Tier::Bytecode;
                resp.tierFallbackReason = reason;
            }
        }
        resp.retries = retries;

        if (req.run) {
            exec::Buffers buffers(*program);
            fillServiceInputs(*program, buffers);
            exec::ExecOptions eopts;
            eopts.tier = run_tier;
            eopts.threads = req.threads;
            exec::ExecResult result =
                driver::executeKernel(artifact, buffers, eopts);
            resp.tier = exec::tierName(result.tier);
            if (!result.fallbackReason.empty() &&
                resp.tierFallbackReason.empty())
                resp.tierFallbackReason = result.fallbackReason;
            resp.runMs = result.stats.seconds * 1e3;
            resp.bufferHash = hashBuffers(buffers);
            // The backend that *actually* ran, degradations
            // applied: "tier[+parN]".
            resp.backend = exec::tierName(result.tier);
            if (result.par.threads > 0)
                resp.backend +=
                    "+par" + std::to_string(result.par.threads);
        } else {
            resp.tier = exec::tierName(run_tier);
            resp.backend = exec::tierName(run_tier);
        }
        guard->reply(resp);
    } catch (const BudgetExceeded &e) {
        // Never retried here: with a deadline it is the request's
        // own timeout, otherwise shutdown cancelled it mid-flight.
        if (cancel_.cancelled())
            failWith(ErrorKind::Cancelled, e.what());
        else
            failWith(ErrorKind::Timeout, e.what());
    } catch (const FatalError &e) {
        failWith(ErrorKind::Fatal, e.what());
    } catch (const PanicError &e) {
        failWith(ErrorKind::Panic, e.what());
    } catch (const std::exception &e) {
        failWith(ErrorKind::Internal, e.what());
    } catch (...) {
        failWith(ErrorKind::Internal, "unknown exception");
    }
}

void
Server::sendResponse(const std::shared_ptr<Conn> &conn,
                     const Response &resp)
{
    std::string payload = encodeResponse(resp);
    std::string err;
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (!writeFrame(conn->fd, payload, &err))
        warn("service: dropping response for request " +
             std::to_string(resp.id) + ": " + err);
}

void
Server::sendError(const std::shared_ptr<Conn> &conn, uint64_t id,
                  ErrorKind kind, const std::string &message)
{
    Response resp;
    resp.id = id;
    resp.ok = false;
    resp.kind = kind;
    resp.message = message;
    sendResponse(conn, resp);
}

bool
Server::waitForShutdownRequest(double ms)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto requested = [this] {
        return shutdownRequested_.load() || stopped_;
    };
    if (ms <= 0) {
        shutdownCv_.wait(lock, requested);
        return true;
    }
    return shutdownCv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(ms),
        requested);
}

void
Server::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!started_ || stopped_)
            return;
        stopped_ = true;
    }
    shutdownCv_.notify_all();

    // 1. Stop accepting: shut the listener down (wakes the accept
    //    thread's poll immediately instead of waiting out its tick),
    //    reap the thread, release the socket path.
    accepting_.store(false);
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::unlink(path_.c_str());

    // 2. Drain with a deadline. Queued-but-unrun jobs are destroyed;
    //    their ReplyGuards answer ErrorKind::Shutdown. If in-flight
    //    work outlives the deadline, cancel it cooperatively (every
    //    request token chains to cancel_) and wait it out -- those
    //    requests answer ErrorKind::Cancelled.
    if (pool_) {
        ThreadPool::DrainResult dr = pool_->drain(opts_.drainMs);
        if (!dr.completed) {
            cancel_.cancel();
            pool_->wait();
        }
    }

    // 3. Hang up every connection and wait for the (detached)
    //    readers to reap themselves. No reader survives this point,
    //    so the pool teardown below cannot race a late dispatch().
    {
        std::unique_lock<std::mutex> lock(mu_);
        for (const auto &conn : conns_)
            ::shutdown(conn->fd, SHUT_RDWR);
        readersCv_.wait(lock,
                        [this] { return activeReaders_ == 0; });
        conns_.clear();
    }

    // 4. Flush persistent state, then retire the workers.
    if (opts_.tuneDb && !opts_.tuneDb->save())
        warn("service: could not save tuning store " +
             opts_.tuneDb->path());
    pool_.reset();
}

int
Server::run(const std::function<bool()> &interrupted,
            double poll_ms)
{
    while (true) {
        if (waitForShutdownRequest(poll_ms))
            break;
        if (interrupted && interrupted())
            break;
    }
    stop();
    return 0;
}

ServerStats
Server::stats() const
{
    ServerStats s;
    s.present = true;
    s.accepted = counters_.accepted.load();
    s.completed = counters_.completed.load();
    s.shed = counters_.shed.load();
    s.retries = counters_.retries.load();
    s.errors = counters_.errors.load();
    s.timeouts = counters_.timeouts.load();
    s.cacheHits = counters_.cacheHits.load();
    return s;
}

} // namespace service
} // namespace polyfuse
