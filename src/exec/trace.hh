/**
 * @file
 * Batched memory-trace plumbing shared by the execution tiers and
 * the cache simulator.
 *
 * The original TraceHook (std::function called once per scalar
 * access) costs an indirect call plus argument marshalling on every
 * access -- measurable when the cache simulation consumes hundreds
 * of millions of records. The bytecode tier instead appends fixed
 * 16-byte TraceRecords to an in-kernel buffer and hands full batches
 * to a TraceSink, so the per-access cost is one store plus a counter
 * bump and the indirect call amortizes over kTraceBatch records.
 * The per-access TraceHook remains the reference interpreter's own
 * trace signature (exec/executor.hh).
 */

#ifndef POLYFUSE_EXEC_TRACE_HH
#define POLYFUSE_EXEC_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace polyfuse {
namespace exec {

/** One scalar access: space id (tensor, or numTensors + tensor for
 *  a promoted scratchpad), element offset, and direction. */
struct TraceRecord
{
    int64_t offset = 0;
    int32_t space = 0;
    uint8_t isWrite = 0;
};

/** Records per batch handed to a TraceSink. */
constexpr size_t kTraceBatch = 4096;

/** Consumer of batched trace records (delivered in program order). */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called with @p n > 0 records in execution order. */
    virtual void onRecords(const TraceRecord *records, size_t n) = 0;
};

/** Memory-trace hook of the reference interpreter: called once per
 *  scalar access. */
using TraceHook =
    std::function<void(int space, int64_t offset, bool is_write)>;

} // namespace exec
} // namespace polyfuse

#endif // POLYFUSE_EXEC_TRACE_HH
